#include "compiler/model_counter.h"

#include <span>
#include <utility>

#include "base/logspace.h"
#include "base/observability.h"
#include "compiler/subproblem.h"

namespace tbc {

namespace {

// What the two counters share: a subproblem evaluates to a Number, its
// (weighted) model count over the variables it mentions; each variable
// that drops out multiplies in a factor; no trace is recorded.
template <typename Number>
struct CounterAlgebra {
  using Value = Number;
  using Product = Number;
  struct Sink {};
  using Decision = Sink;
  static constexpr bool kFreeVars = true;
  static constexpr compiler_internal::SearchCounters kCounters = {
      "counter.decisions", "counter.cache_hits", "counter.cache_misses",
      nullptr};

  static Sink Top() { return {}; }
  static Sink Hi(Decision&) { return {}; }
  static Sink Lo(Decision&) { return {}; }
  static void Times(Number& product, const Number& sub, Sink) {
    product *= sub;
  }
};

// Exact counting: each dropped variable doubles the count.
struct CountAlgebra : CounterAlgebra<BigUint> {
  static BigUint Zero(Sink) { return BigUint(0); }
  static BigUint One() { return BigUint(1); }
  static void Implied(BigUint&, Lit) {}
  static void Free(BigUint& value, std::span<const Var> dropped) {
    if (!dropped.empty()) {
      value *= BigUint::PowerOfTwo(static_cast<unsigned>(dropped.size()));
    }
  }
  static BigUint Finish(BigUint& product, Sink) { return std::move(product); }
  static BigUint Assume(Lit, BigUint sub, std::span<const Var> dropped) {
    Free(sub, dropped);
    return sub;
  }
  static BigUint Decide(Decision&, Var, const BigUint& hi,
                        const BigUint& lo) {
    BigUint total = lo;
    total += hi;
    return total;
  }
};

// Weighted counting; a dropped variable x contributes W(x) + W(¬x). All
// accumulation — including the component cache — is in ScaledDouble
// (base/logspace.h): a chain of a few thousand 1e-3 weights produces
// intermediates around 1e-6000, which plain double flushes to 0.0 and the
// cache would then serve as a *wrong* 0.0 to every isomorphic subproblem.
// The explicit exponent makes those intermediates exact; the public API
// converts back to double only at the very end. Factors multiply in the
// order the driver lists them, which fixes the rounding of every result.
class WmcAlgebra : public CounterAlgebra<ScaledDouble> {
 public:
  WmcAlgebra(const WeightMap& weights, uint64_t& rescues)
      : weights_(weights), rescues_(rescues) {}

  static ScaledDouble Zero(Sink) { return ScaledDouble::Zero(); }
  static ScaledDouble One() { return ScaledDouble::One(); }
  void Implied(ScaledDouble& product, Lit l) const { product *= Weight(l); }
  // Long implied-literal chains are where naive products die first, so
  // the product is checked here; so is the whole CNF's, whose answer may
  // itself not fit a double (ToDouble() then saturates to 0.0 / inf).
  void Free(ScaledDouble& value, std::span<const Var> dropped) {
    for (const Var v : dropped) value *= Either(v);
    NoteIfRescued(value);
  }
  ScaledDouble Finish(ScaledDouble& product, Sink) {
    NoteIfRescued(product);
    return product;
  }
  ScaledDouble Assume(Lit l, const ScaledDouble& sub,
                      std::span<const Var> dropped) const {
    ScaledDouble w = Weight(l) * sub;
    for (const Var v : dropped) w *= Either(v);
    return w;
  }
  ScaledDouble Decide(Decision&, Var, const ScaledDouble& hi,
                      const ScaledDouble& lo) {
    ScaledDouble total = lo;
    total += hi;
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
    if (!v.IsZero() && !v.FitsDouble()) {
      ++rescues_;
      TBC_COUNT("counter.wmc.rescues");
    }
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
