#ifndef TBC_LOGIC_CNF_H_
#define TBC_LOGIC_CNF_H_

#include <string>
#include <vector>

#include "base/result.h"
#include "logic/lit.h"

namespace tbc {

/// A clause is a disjunction of literals.
using Clause = std::vector<Lit>;

/// A Boolean formula in Conjunctive Normal Form.
///
/// This is the input language of every knowledge compiler in the library
/// (CNF -> d-DNNF / OBDD / SDD) and the output language of the encodings
/// (Bayesian networks, route spaces, rankings, classifiers).
class Cnf {
 public:
  /// An empty (trivially true) CNF over `num_vars` variables.
  explicit Cnf(size_t num_vars = 0) : num_vars_(num_vars) {}

  /// Adds a clause, its literals sorted. Duplicate literals are removed;
  /// tautological clauses (containing both x and ~x) are dropped. Grows
  /// num_vars if needed. Every clause of a Cnf is sorted this way.
  void AddClause(Clause clause);

  /// Adds a clause from DIMACS-style signed ints, e.g. {1, -3}.
  void AddClauseDimacs(const std::vector<int>& dimacs_lits);

  /// Number of variables (variables are 0..num_vars()-1).
  size_t num_vars() const { return num_vars_; }
  /// Declares at least n variables (some may not occur in clauses).
  void EnsureVars(size_t n) {
    if (n > num_vars_) num_vars_ = n;
  }

  size_t num_clauses() const { return clauses_.size(); }
  const std::vector<Clause>& clauses() const { return clauses_; }
  const Clause& clause(size_t i) const { return clauses_[i]; }

  /// True iff the assignment satisfies every clause.
  bool Evaluate(const Assignment& assignment) const;

  /// Returns the CNF conditioned on literal l: clauses containing l are
  /// removed, occurrences of ~l are deleted. num_vars is unchanged.
  Cnf Condition(Lit l) const;

  /// Conjunction of two CNFs over the union of their variables.
  static Cnf Conjoin(const Cnf& a, const Cnf& b);

  /// True iff some clause is empty (formula trivially unsatisfiable).
  bool HasEmptyClause() const;

  /// Exact model count by exhaustive enumeration. Intended as a test oracle;
  /// aborts if num_vars() > 30.
  uint64_t CountModelsBruteForce() const;

  /// Parses DIMACS CNF text ("p cnf <vars> <clauses>" header, 'c' comments).
  static Result<Cnf> ParseDimacs(const std::string& text);

  /// Serializes to DIMACS CNF text.
  std::string ToDimacs() const;

 private:
  size_t num_vars_;
  std::vector<Clause> clauses_;
};

}  // namespace tbc

#endif  // TBC_LOGIC_CNF_H_
