#ifndef TBC_SDD_IO_H_
#define TBC_SDD_IO_H_

#include <string>
#include <utility>
#include <vector>

#include "base/result.h"
#include "sdd/sdd.h"
#include "vtree/vtree.h"

namespace tbc {

/// Serializes an SDD in the SDD-library exchange format:
///   sdd <count>
///   F <id>                          (constant ⊥)
///   T <id>                          (constant ⊤)
///   L <id> <vtree_pos> <dimacs_lit>
///   D <id> <vtree_pos> <k> <p1> <s1> ... <pk> <sk>
/// Node ids are emission-order; vtree_pos is the in-order position of the
/// node's vtree node (pair the file with Vtree::ToFileString()). The last
/// line defines the root.
std::string WriteSdd(const SddManager& mgr, SddId f);

/// One node of a raw .sdd file, before any canonicalization. Element ids
/// index earlier entries of the graph vector.
struct SddFileNode {
  char kind = '?';  // 'T', 'F', 'L', 'D'
  Lit lit;          // for 'L'
  VtreeId vtree = kInvalidVtree;                        // for 'L' and 'D'
  std::vector<std::pair<uint32_t, uint32_t>> elements;  // for 'D'
  uint32_t file_id = 0;                                 // id used in the file
  size_t line = 0;                                      // 1-based line
};

/// The one reader of .sdd text: parses the format above against `vtree`
/// into a flat graph whose last node is the root, building nothing, so a
/// linter still sees what canonicalization would hide. Refuses, with a
/// line-numbered kInvalidInput, only what it cannot read: a missing
/// header, an unknown line, a malformed token, a vtree position or literal
/// variable the vtree lacks, or an element naming no earlier node. Whether
/// each node is an SDD node for the vtree is left to its callers.
Result<std::vector<SddFileNode>> ParseSddFileGraph(const std::string& text,
                                                   const Vtree& vtree);

/// Loads the format above into `mgr`, whose vtree must match the one the
/// file was written against: ParseSddFileGraph, then a build in file order
/// that refuses, with a line-numbered kInvalidInput, every node that is
/// not an SDD node for the vtree (one CheckSddLiteral or CheckSddElements
/// faults). Elements are re-canonicalized on the
/// way in, so the result is the manager's canonical form of the function.
Result<SddId> ReadSdd(SddManager& mgr, const std::string& text);

}  // namespace tbc

#endif  // TBC_SDD_IO_H_
