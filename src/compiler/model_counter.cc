#include "compiler/model_counter.h"

#include <utility>

#include "base/logspace.h"
#include "base/observability.h"
#include "compiler/subproblem.h"

namespace tbc {

namespace {

// What the two counters share: a subproblem evaluates to a Number, its
// (weighted) model count over the variables it holds; a decision adds its
// two branches, each weighed by its literal; no trace is recorded.
template <typename Number>
struct CounterAlgebra {
  using Value = Number;
  struct Sink {};
  using Decision = Sink;
  static constexpr compiler_internal::SearchCounters kCounters = {
      "counter.decisions", "counter.cache_hits", "counter.cache_misses",
      nullptr};

  static Sink Top() { return {}; }
  static Sink Hi(Decision&) { return {}; }
  static Sink Lo(Decision&) { return {}; }
};

// Exact counting: each free variable doubles the count. A branch tallies
// its free variables and applies them as one power of two.
struct CountAlgebra : CounterAlgebra<BigUint> {
  struct Product {
    BigUint count;
    unsigned free = 0;
  };
  static BigUint Zero(Sink) { return BigUint(0); }
  static Product One() { return {BigUint(1), 0}; }
  static void Implied(Product&, Lit) {}
  static void Free(Product& product, Var) { ++product.free; }
  static void Times(Product& product, const BigUint& sub, Sink) {
    product.count *= sub;
  }
  static BigUint Finish(Product& product, Sink) {
    if (product.free != 0) product.count *= BigUint::PowerOfTwo(product.free);
    return std::move(product.count);
  }
  static BigUint Decide(Decision&, Var, const BigUint& hi,
                        const BigUint& lo) {
    BigUint total = lo;
    total += hi;
    return total;
  }
};

// Weighted counting; a free variable x contributes W(x) + W(¬x). All
// accumulation — including the component cache — is in ScaledDouble
// (base/logspace.h): a chain of a few thousand 1e-3 weights produces
// intermediates around 1e-6000, which plain double flushes to 0.0 and the
// cache would then serve as a *wrong* 0.0 to every isomorphic subproblem.
// The explicit exponent makes those intermediates exact; the public API
// converts back to double only at the very end. Factors multiply in the
// order the driver lists them, which fixes the rounding of every result.
class WmcAlgebra : public CounterAlgebra<ScaledDouble> {
 public:
  using Product = ScaledDouble;

  WmcAlgebra(const WeightMap& weights, uint64_t& rescues)
      : weights_(weights), rescues_(rescues) {}

  static ScaledDouble Zero(Sink) { return ScaledDouble::Zero(); }
  static ScaledDouble One() { return ScaledDouble::One(); }
  // Long implied-literal chains are where naive products die first, so
  // the product is checked here; so is the whole CNF's, whose answer may
  // itself not fit a double (ToDouble() then saturates to 0.0 / inf).
  void Implied(ScaledDouble& product, Lit l) {
    product *= Weight(l);
    NoteIfRescued(product);
  }
  void Free(ScaledDouble& product, Var v) {
    product *= Either(v);
    NoteIfRescued(product);
  }
  static void Times(ScaledDouble& product, const ScaledDouble& sub, Sink) {
    product *= sub;
  }
  ScaledDouble Finish(ScaledDouble& product, Sink) {
    NoteIfRescued(product);
    return product;
  }
  ScaledDouble Decide(Decision&, Var v, const ScaledDouble& hi,
                      const ScaledDouble& lo) {
    ScaledDouble total = Weight(Neg(v)) * lo;
    total += Weight(Pos(v)) * hi;
    NoteIfRescued(total);
    return total;
  }

 private:
  ScaledDouble Weight(Lit l) const {
    return ScaledDouble::FromDouble(weights_[l]);
  }
  ScaledDouble Either(Var v) const {
    return ScaledDouble::FromDouble(weights_[Pos(v)] + weights_[Neg(v)]);
  }
  // A nonzero value outside the normal double range is exactly what the
  // pre-log-space accumulator destroyed; count each sighting.
  void NoteIfRescued(const ScaledDouble& v) {
    if (!v.IsZero() && !v.FitsDouble()) ++rescues_;
  }

  const WeightMap& weights_;
  uint64_t& rescues_;
};

// Runs the one DPLL driver in `algebra`, with every technique on.
template <typename Algebra>
Result<typename Algebra::Value> Search(Algebra& algebra, const Cnf& cnf,
                                       Guard& guard,
                                       ModelCounter::Stats* stats) {
  *stats = ModelCounter::Stats();
  TBC_RETURN_IF_ERROR(guard.Check());
  DdnnfStats search;
  auto value = compiler_internal::Dpll(algebra, DdnnfOptions(), search, guard)
                   .Run(cnf);
  stats->decisions = search.decisions;
  stats->cache_hits = search.cache_hits;
  if (stats->underflow_rescues != 0) {
    TBC_COUNT_N("counter.wmc.rescues", stats->underflow_rescues);
  }
  return value;
}

}  // namespace

BigUint ModelCounter::Count(const Cnf& cnf) {
  return CountBounded(cnf, Guard::Unlimited()).value();
}

double ModelCounter::Wmc(const Cnf& cnf, const WeightMap& weights) {
  return WmcBounded(cnf, weights, Guard::Unlimited()).value();
}

Result<BigUint> ModelCounter::CountBounded(const Cnf& cnf, Guard& guard) {
  TBC_SPAN("counter.count");
  CountAlgebra count;
  return Search(count, cnf, guard, &stats_);
}

Result<double> ModelCounter::WmcBounded(const Cnf& cnf, const WeightMap& weights,
                                        Guard& guard) {
  TBC_SPAN("counter.wmc");
  WmcAlgebra wmc(weights, stats_.underflow_rescues);
  TBC_ASSIGN_OR_RETURN(const ScaledDouble w, Search(wmc, cnf, guard, &stats_));
  return w.ToDouble();
}

}  // namespace tbc
