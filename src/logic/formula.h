#ifndef TBC_LOGIC_FORMULA_H_
#define TBC_LOGIC_FORMULA_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "logic/cnf.h"
#include "logic/lit.h"

namespace tbc {

/// Handle to a node in a FormulaStore (a shared Boolean-formula DAG).
using FormulaId = uint32_t;

/// A store of Boolean formulas with structure sharing (hash consing).
///
/// Formulas are arbitrary propositional sentences: variables, negation,
/// conjunction, disjunction (plus sugar: implication, equivalence, XOR,
/// cardinality). They are the front-end language for the encodings in this
/// library. Two compilation paths exist: Tseitin transformation to CNF
/// (ToCnfTseitin, introduces auxiliary variables but is equisatisfiable and
/// model-count preserving over the original variables), and direct
/// bottom-up compilation by the OBDD/SDD packages.
class FormulaStore {
 public:
  enum class Kind : uint8_t { kFalse, kTrue, kVar, kNot, kAnd, kOr };

  FormulaStore();

  /// Constant false / true.
  FormulaId False() const { return 0; }
  FormulaId True() const { return 1; }

  /// Formula for variable v (creates the variable if new).
  FormulaId VarNode(Var v);
  /// Formula for a literal.
  FormulaId LitNode(Lit l) { return l.positive() ? VarNode(l.var()) : Not(VarNode(l.var())); }

  FormulaId Not(FormulaId f);
  FormulaId And(FormulaId a, FormulaId b);
  FormulaId Or(FormulaId a, FormulaId b);
  FormulaId And(const std::vector<FormulaId>& fs);
  FormulaId Or(const std::vector<FormulaId>& fs);
  FormulaId Implies(FormulaId a, FormulaId b) { return Or(Not(a), b); }
  FormulaId Iff(FormulaId a, FormulaId b);
  FormulaId Xor(FormulaId a, FormulaId b) { return Not(Iff(a, b)); }
  /// Exactly one of fs holds.
  FormulaId ExactlyOne(const std::vector<FormulaId>& fs);
  /// At most one of fs holds (pairwise encoding).
  FormulaId AtMostOne(const std::vector<FormulaId>& fs);

  /// Majority gate: at least ceil((n+1)/2) of fs hold (strict majority).
  FormulaId Majority(const std::vector<FormulaId>& fs);
  /// At least k of fs hold.
  FormulaId AtLeastK(const std::vector<FormulaId>& fs, size_t k);

  Kind kind(FormulaId f) const { return nodes_[f].kind; }
  Var var(FormulaId f) const { return nodes_[f].var; }
  FormulaId child(FormulaId f, size_t i) const { return nodes_[f].children[i]; }
  size_t num_children(FormulaId f) const { return nodes_[f].children.size(); }

  /// Number of variables mentioned (max var + 1).
  size_t num_vars() const { return num_vars_; }
  size_t num_nodes() const { return nodes_.size(); }

  /// The nodes reachable from f in ascending id order. A node's children
  /// are interned before it, so children come first.
  std::vector<FormulaId> ReachableAscending(FormulaId f) const;

  /// Folds the formula at f bottom-up over ReachableAscending(f), one value
  /// per node: leaf(g) for a constant or variable node g, negate(value)
  /// for a negation, and for an and/or node its children's values folded
  /// in order by join(kind, acc, value), starting from leaf(True()) for an
  /// and and leaf(False()) for an or.
  template <typename T, typename Leaf, typename Negate, typename Join>
  T Fold(FormulaId f, Leaf&& leaf, Negate&& negate, Join&& join) const;

  /// Truth value under a complete assignment.
  bool Evaluate(FormulaId f, const Assignment& assignment) const;

  /// Tseitin transformation. The result has the original variables
  /// 0..num_vars()-1 plus one auxiliary variable per internal gate; the
  /// formula's root is asserted true. Every model of `f` extends to exactly
  /// one model of the CNF, so model counts over the original variables are
  /// preserved.
  Cnf ToCnfTseitin(FormulaId f) const;

  /// Human-readable rendering (for debugging and docs).
  std::string ToString(FormulaId f) const;

 private:
  struct Node {
    Kind kind;
    Var var = kInvalidVar;          // for kVar
    std::vector<FormulaId> children;  // for kNot/kAnd/kOr
  };

  FormulaId Intern(Node node);
  static uint64_t NodeKey(const Node& node);

  std::vector<Node> nodes_;
  std::unordered_map<uint64_t, std::vector<FormulaId>> index_;
  size_t num_vars_ = 0;
};

template <typename T, typename Leaf, typename Negate, typename Join>
T FormulaStore::Fold(FormulaId f, Leaf&& leaf, Negate&& negate,
                     Join&& join) const {
  std::vector<T> value(size_t{f} + 1);
  for (const FormulaId g : ReachableAscending(f)) {
    const Node& n = nodes_[g];
    if (n.kind == Kind::kNot) {
      value[g] = negate(value[n.children[0]]);
    } else if (n.kind == Kind::kAnd || n.kind == Kind::kOr) {
      T acc = leaf(n.kind == Kind::kAnd ? True() : False());
      for (const FormulaId c : n.children) acc = join(n.kind, acc, value[c]);
      value[g] = acc;
    } else {
      value[g] = leaf(g);
    }
  }
  return value[f];
}

}  // namespace tbc

#endif  // TBC_LOGIC_FORMULA_H_
