#ifndef TBC_OBDD_OBDD_H_
#define TBC_OBDD_OBDD_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/bigint.h"
#include "base/flat_table.h"
#include "base/hash.h"
#include "certify/trace.h"
#include "logic/cnf.h"
#include "logic/formula.h"
#include "logic/lit.h"
#include "nnf/nnf.h"

namespace tbc {

/// Node index within an ObddManager. 0 and 1 are the terminals.
using ObddId = uint32_t;

/// Ordered Binary Decision Diagram package [Bryant 1986].
///
/// OBDDs are the classic tractable circuit language the paper contrasts
/// with SDDs (Fig 11, Fig 25): an SDD over a right-linear vtree *is* an
/// OBDD, and every OBDD node is a binary multiplexer deciding on a single
/// variable. The package is reduced and ordered: nodes are hash-consed, so
/// two equivalent functions get the same node (canonicity), and every
/// root-to-terminal path respects the manager's variable order.
///
/// Supported operations: Apply (∧, ∨, ⊕), negation, restrict/condition,
/// existential and universal quantification, composition, exact model
/// counting and WMC, model enumeration, export to NNF (yielding a
/// Decision-DNNF), and compilation from CNF or formula ASTs.
///
/// Counting and WMC are each one ascending pass over the nodes, in which
/// an edge that skips levels multiplies by the skipped variables' free
/// factor. Every OBDD is a Decision-DNNF, so the d-DNNF kernels of
/// nnf/queries.h could answer both on a ToNnf export, but every caller
/// counts a root once, and a one-shot export plus gap plan measured about
/// 1.7x the whole pass on a 3,494-node route OBDD (EXPERIMENTS.md).
class ObddManager {
 public:
  /// Manager over variables 0..order.size()-1 tested in the given order
  /// (order[0] is the root level); `order` must be a permutation of them
  /// (checked).
  explicit ObddManager(std::vector<Var> order);

  ObddId False() const { return 0; }
  ObddId True() const { return 1; }
  /// The function of a single literal.
  ObddId LiteralNode(Lit l);
  /// Decision node: if v then hi else lo (v must precede hi/lo's levels).
  ObddId MakeNode(Var v, ObddId lo, ObddId hi);

  size_t num_vars() const { return order_.size(); }
  const std::vector<Var>& order() const { return order_; }
  /// Level (depth in the order) of a variable.
  uint32_t LevelOf(Var v) const { return level_of_var_[v]; }

  bool IsTerminal(ObddId f) const { return f <= 1; }
  Var var(ObddId f) const { return nodes_[f].var; }
  ObddId lo(ObddId f) const { return nodes_[f].lo; }
  ObddId hi(ObddId f) const { return nodes_[f].hi; }

  ObddId And(ObddId f, ObddId g);
  ObddId Or(ObddId f, ObddId g);
  ObddId Xor(ObddId f, ObddId g);
  ObddId Not(ObddId f);
  ObddId Implies(ObddId f, ObddId g) { return Or(Not(f), g); }
  ObddId Iff(ObddId f, ObddId g) { return Not(Xor(f, g)); }
  /// If-then-else.
  ObddId Ite(ObddId f, ObddId g, ObddId h);

  /// f with variable v fixed to `value`.
  ObddId Restrict(ObddId f, Var v, bool value);
  /// f conditioned on a literal.
  ObddId Condition(ObddId f, Lit l) { return Restrict(f, l.var(), l.positive()); }
  /// ∃v. f and ∀v. f.
  ObddId Exists(ObddId f, Var v);
  ObddId Forall(ObddId f, Var v);
  /// f with variable v substituted by the function g.
  ObddId Compose(ObddId f, Var v, ObddId g);

  /// Truth value under a complete assignment.
  bool Evaluate(ObddId f, const Assignment& assignment) const;
  /// Exact number of models over all manager variables.
  BigUint ModelCount(ObddId f);
  /// Weighted model count over all manager variables. The weight map must
  /// have exactly num_vars() variables (checked).
  double Wmc(ObddId f, const WeightMap& weights);
  /// Invokes on_model for every model over all manager variables
  /// (test/analysis oracle; exponential output).
  void EnumerateModels(ObddId f,
                       const std::function<void(const Assignment&)>& on_model);

  /// Nodes reachable from f (including terminals).
  size_t Size(ObddId f) const;
  /// The nodes reachable from f, terminals included, in ascending id
  /// order: lo and hi are created before their parent, so children come
  /// first. Every bottom-up pass over an OBDD is a loop over this list.
  std::vector<ObddId> ReachableAscending(ObddId f) const;
  /// Total nodes ever created in the manager.
  size_t num_nodes() const { return nodes_.size(); }

  /// Exports the subgraph at f as a Decision-DNNF circuit in `nnf`.
  NnfId ToNnf(ObddId f, NnfManager& nnf) const;

  /// Compiles a CNF by conjoining clause OBDDs.
  ObddId CompileCnf(const Cnf& cnf);
  /// Compiles a formula AST bottom-up.
  ObddId CompileFormula(const FormulaStore& store, FormulaId f);

  /// True iff f is monotone (non-decreasing) in variable v: f|¬v ⇒ f|v.
  bool IsMonotoneIn(ObddId f, Var v);

  /// Attaches an apply-step sink (borrowed; nullptr detaches). While
  /// attached, every conjunction computed by Apply is recorded. Attaching
  /// clears the op cache, so conjunctions answered from the cache always
  /// have a recorded step behind them.
  void set_trace(ObddTraceSink* sink) {
    op_cache_.Clear();
    trace_ = sink;
  }

  /// CompileCnf that also fills `trace` with everything the certificate
  /// checker needs: order, node-table snapshot, apply steps, and the
  /// clause-conjunction chain ending at the returned root.
  ObddId CompileCnfTraced(const Cnf& cnf, ObddTrace* trace);

 private:
  struct Node {
    Var var;
    ObddId lo, hi;
  };
  enum class Op : uint8_t { kAnd, kOr, kXor, kNot };

  ObddId Apply(Op op, ObddId f, ObddId g);
  static bool TerminalCase(Op op, ObddId f, ObddId g, ObddId* out);
  // Level of a node; the terminals sit below the last variable.
  uint32_t NodeLevel(ObddId g) const;

  // Exact cache key: packed operands plus an operation tag (collision-free,
  // unlike keying on a hash value).
  struct OpKey {
    uint64_t fg = 0;   // f | (g << 32)
    uint32_t tag = 0;  // operation id; Restrict encodes (var, value)
    bool operator==(const OpKey& o) const { return fg == o.fg && tag == o.tag; }
    // Found by ADL from LossyCache; full splitmix64 mix of both fields.
    friend uint64_t HashValue(const OpKey& k) {
      return HashU64(k.fg) ^ HashU64(static_cast<uint64_t>(k.tag) + 0x9e3779b97f4a7c15ull);
    }
  };

  std::vector<Var> order_;
  std::vector<uint32_t> level_of_var_;
  std::vector<Node> nodes_;
  UniqueTable unique_;
  LossyCache<OpKey, ObddId> op_cache_;
  ObddTraceSink* trace_ = nullptr;
};

}  // namespace tbc

#endif  // TBC_OBDD_OBDD_H_
