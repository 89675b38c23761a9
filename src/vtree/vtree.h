#ifndef TBC_VTREE_VTREE_H_
#define TBC_VTREE_VTREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/random.h"
#include "base/result.h"
#include "logic/lit.h"

namespace tbc {

/// Node index within a Vtree.
using VtreeId = uint32_t;
constexpr VtreeId kInvalidVtree = static_cast<VtreeId>(-1);

/// A vtree: a full binary tree whose leaves are in one-to-one correspondence
/// with Boolean variables [Pipatsrisawat & Darwiche 2008].
///
/// Vtrees drive *structured decomposability*: every and-gate of a structured
/// DNNF/SDD respects some vtree node v, with its two inputs ranging over the
/// variables of v's left and right subtrees. The vtree is ordered (left vs
/// right children matter, as in SDDs). Special shapes:
///   - right-linear vtrees make SDDs coincide with OBDDs (paper Fig 10c);
///   - constrained vtrees for X|Y place Y on a right-spine prefix so that
///     E-MAJSAT / MAP over Y become linear-time on the compiled SDD
///     (paper Fig 10b, [Oztok, Choi & Darwiche 2016]).
class Vtree {
 public:
  /// Right-linear vtree over the variable order (Fig 10c): every internal
  /// node's left child is a leaf.
  static Vtree RightLinear(const std::vector<Var>& order);
  /// Left-linear vtree over the variable order.
  static Vtree LeftLinear(const std::vector<Var>& order);
  /// Balanced vtree over the variable order (Fig 10a shape).
  static Vtree Balanced(const std::vector<Var>& order);
  /// Constrained vtree for bottom|top (Fig 10b): a right-linear spine over
  /// `top` whose final right child is a balanced vtree over `bottom`. The
  /// node over `bottom` is reachable from the root through right children
  /// only, as Figure 10 requires.
  static Vtree Constrained(const std::vector<Var>& top,
                           const std::vector<Var>& bottom);

  /// Identity order 0..n-1 helpers.
  static std::vector<Var> IdentityOrder(size_t n);

  VtreeId root() const { return root_; }
  size_t num_nodes() const { return nodes_.size(); }
  size_t num_vars() const { return leaf_of_var_.size(); }

  bool IsLeaf(VtreeId v) const { return nodes_[v].var != kInvalidVar; }
  Var var(VtreeId v) const { return nodes_[v].var; }
  VtreeId left(VtreeId v) const { return nodes_[v].left; }
  VtreeId right(VtreeId v) const { return nodes_[v].right; }
  VtreeId parent(VtreeId v) const { return nodes_[v].parent; }
  /// In-order position (leaves and internal nodes interleaved); ancestors
  /// of v have positions spanning v's subtree span.
  uint32_t position(VtreeId v) const { return nodes_[v].position; }
  /// Leaf node for a variable.
  VtreeId LeafOfVar(Var v) const { return leaf_of_var_[v]; }

  /// True iff `a` is `b` or an ancestor of `b`. Constant time: a range
  /// test on in-order positions.
  bool IsAncestorOrSelf(VtreeId a, VtreeId b) const;
  /// Lowest common ancestor, climbing from `a` only as far as it.
  VtreeId Lca(VtreeId a, VtreeId b) const;

  /// Variables in the subtree rooted at v, in leaf order.
  std::vector<Var> VarsBelow(VtreeId v) const;
  /// Number of variables below v.
  size_t NumVarsBelow(VtreeId v) const { return nodes_[v].num_vars_below; }

  /// Depth of node (root is 0).
  uint32_t Depth(VtreeId v) const;

  /// Renders as s-expression, e.g. "((0 1) (2 3))" (for tests/docs).
  std::string ToString() const { return ToString(root_); }
  std::string ToString(VtreeId v) const;

  /// Serializes in the SDD-library vtree exchange format:
  ///   vtree <count>
  ///   L <id> <dimacs_var>      (leaf; variables 1-based as in the format)
  ///   I <id> <left_id> <right_id>
  /// The last line defines the root.
  std::string ToFileString() const;
  /// Parses the format above.
  static Result<Vtree> Parse(const std::string& text);

  /// Random vtree over the variables (uniform recursive splits) — used by
  /// vtree search and for property tests.
  static Vtree Random(std::vector<Var> vars, Rng& rng);

  /// In-place vtree surgery for dynamic SDD minimization [Choi & Darwiche
  /// 2013]. Each returns false — leaving the tree untouched — when the
  /// shape does not permit the move: rotations need an internal node with
  /// an internal left (right) child, swap any internal node. Node ids are
  /// stable across all three (only child/parent links, in-order positions
  /// and var counts change), which is what lets SddManager relabel live
  /// SDD nodes instead of rebuilding them. RotateRightAt(v) and
  /// RotateLeftAt(v) are exact inverses; SwapChildrenAt is self-inverse.
  bool RotateRightAt(VtreeId v);   // v=(l=(a,b), c) -> v=(a, l=(b,c))
  bool RotateLeftAt(VtreeId v);    // v=(a, r=(b,c)) -> v=(r=(a,b), c)
  bool SwapChildrenAt(VtreeId v);  // v=(a, b)       -> v=(b, a)

 private:
  struct Node {
    Var var = kInvalidVar;  // valid iff leaf
    VtreeId left = kInvalidVtree;
    VtreeId right = kInvalidVtree;
    VtreeId parent = kInvalidVtree;
    uint32_t position = 0;
    uint32_t num_vars_below = 0;
  };

  VtreeId AddLeaf(Var v);
  VtreeId AddInternal(VtreeId l, VtreeId r);
  // Builds a balanced subtree over order[lo..hi).
  VtreeId BuildBalanced(const std::vector<Var>& order, size_t lo, size_t hi);
  void Finalize();

  std::vector<Node> nodes_;
  std::vector<VtreeId> leaf_of_var_;
  VtreeId root_ = kInvalidVtree;
};

}  // namespace tbc

#endif  // TBC_VTREE_VTREE_H_
