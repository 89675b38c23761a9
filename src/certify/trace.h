#ifndef TBC_CERTIFY_TRACE_H_
#define TBC_CERTIFY_TRACE_H_

#include <cstdint>
#include <vector>

#include "logic/lit.h"
#include "nnf/nnf.h"

namespace tbc {

/// Raw derivation traces recorded by the compilers while they run. These
/// are plain data — no behavior, no dependency on compiler internals — so
/// the producing libraries can fill them without linking the checker. The
/// checker (certify/checker.h) replays them with its own unit-propagation
/// engine; nothing in a trace is trusted until it survives that replay.
///
/// Emission is always compiled in and dormant until a sink is attached: a
/// detached sink costs the compilers one null-pointer test per site.

/// One DPLL search-tree edge of the d-DNNF compiler: the result of
/// compiling a clause set (under the assumptions accumulated on the path).
/// Either the set was refuted by unit propagation (`conflict`) or it
/// compiled to `node` as the conjunction of BCP-implied literals and the
/// listed components. Implied literals are not recorded: the checker's own
/// propagation re-derives them.
struct CertBranch {
  bool conflict = false;
  NnfId node = kInvalidNnf;
  /// Indices into DdnnfTrace::comps, in compilation order.
  std::vector<uint32_t> comps;
};

/// One cached component: a Shannon decision on `decision` whose branches
/// compiled to `hi` / `lo`. `node` is the resulting circuit node (the
/// decision gate, or whatever it simplified to). Components are referenced
/// by index; a cache hit in the compiler re-references the original record,
/// and the checker re-replays it under the new path.
struct CertComp {
  Var decision = kInvalidVar;
  NnfId node = kInvalidNnf;
  CertBranch hi;
  CertBranch lo;
};

/// Full derivation trace of one d-DNNF compilation.
struct DdnnfTrace {
  std::vector<CertComp> comps;
  CertBranch top;

  void Clear() {
    comps.clear();
    top = CertBranch();
  }
};

/// One conjunction Apply step of the OBDD manager, recorded at an op-cache
/// miss: r = And(f, g). The checker verifies the clausal lemma
/// (~f \/ ~g \/ r) by two unit-propagation probes (one per branch of the
/// top variable, recomputed from the node table) before admitting it.
struct ObddStep {
  uint32_t f = 0;
  uint32_t g = 0;
  uint32_t r = 0;
};

/// One link of CompileCnf's conjunction chain: after building the OBDD
/// `clause_node` for input clause `clause_index`, the accumulator became
/// `acc_node`.
struct ObddChainLink {
  uint32_t clause_index = 0;
  uint32_t clause_node = 0;
  uint32_t acc_node = 0;
};

/// Apply-step sink a long-lived ObddManager writes into while a trace is
/// attached (the manager clears its op cache on attach so every cached
/// conjunction has a recorded step).
struct ObddTraceSink {
  std::vector<ObddStep> steps;
};

/// Full derivation trace of one OBDD CompileCnf run: the manager's node
/// table snapshot, the variable order, the conjunction steps, and the
/// clause chain ending at `root`.
struct ObddTrace {
  struct NodeRec {
    Var var = kInvalidVar;
    uint32_t lo = 0;
    uint32_t hi = 0;
  };
  std::vector<Var> order;
  std::vector<NodeRec> nodes;  // ids 0/1 are the terminals
  std::vector<ObddStep> steps;
  std::vector<ObddChainLink> chain;
  uint32_t root = 0;
};

}  // namespace tbc

#endif  // TBC_CERTIFY_TRACE_H_
