#include "core/portfolio.h"

#include <array>
#include <functional>
#include <numeric>
#include <string>
#include <utility>

#include "analysis/structure/forecast.h"
#include "base/observability.h"
#include "base/timer.h"
#include "bayes/varelim.h"
#include "bayes/wmc_encoding.h"
#include "compiler/ddnnf_compiler.h"
#include "nnf/nnf.h"
#include "nnf/queries.h"
#include "sdd/compile.h"
#include "sdd/sdd.h"
#include "vtree/vtree.h"

#ifdef TBC_VALIDATE
#include "analysis/validate.h"
#endif

namespace tbc {

namespace {

// A query is Pr(evidence) or, with `query_var` set, the pair
// (Pr(extended evidence), Pr(evidence)) for marginals/posteriors. Each
// engine evaluates it under its own stage guard.
struct Query {
  const BayesianNetwork& net;
  const BnInstantiation& evidence;   // original evidence
  const BnInstantiation& extended;   // evidence with v = value asserted
  BnVar v = 0;                       // query variable (marginal/posterior)
  int value = 0;
  bool wants_posterior = false;      // divide by Pr(evidence)
  bool wants_marginal = false;       // evaluate `extended` instead
  /// Structure plan for this query's CNF encoding (set by RunPortfolio):
  /// supplies the SDD arm's vtree and the stage routing below. May be null
  /// (plan computation is best-effort); arms must fall back gracefully.
  const StructureReport* plan = nullptr;
};

// Evaluates the query on a compiled circuit via two linear WMC passes.
// `wmc` maps a WeightMap to the weighted count on the compiled circuit.
Result<double> Answer(const Query& q, const WmcEncoding& enc,
                      const std::function<double(const WeightMap&)>& wmc) {
  if (!q.wants_posterior) {
    const auto& target = q.wants_marginal ? q.extended : q.evidence;
    return wmc(enc.WeightsWithEvidence(target));
  }
  const double pe = wmc(enc.WeightsWithEvidence(q.evidence));
  if (pe <= 0.0) return Status::InvalidInput("zero-probability evidence");
  return wmc(enc.WeightsWithEvidence(q.extended)) / pe;
}

// The SDD arm's vtree: synthesized from the plan's best elimination order
// when available (WmcEncoding is deterministic, so the plan's variable
// indices — computed from an identical encoding of the same network —
// match this one's), else the legacy balanced vtree over variable order.
Vtree VtreeForQuery(const Query& q, const WmcEncoding& enc) {
  if (q.plan != nullptr && !q.plan->candidates.empty() &&
      q.plan->num_vars == enc.num_bool_vars()) {
    return VtreeForCnf(*q.plan);
  }
  std::vector<Var> order(enc.num_bool_vars());
  std::iota(order.begin(), order.end(), 0);
  return Vtree::Balanced(order);
}

Result<double> RunSdd(const Query& q, Guard& guard) {
  WmcEncoding enc(q.net);
  SddManager mgr(VtreeForQuery(q, enc));
  TBC_ASSIGN_OR_RETURN(SddId f, CompileCnfBounded(mgr, enc.cnf(), guard));
  // The compile loop auto-minimizes on growth (when the process-wide
  // policy is on); one more pass at the artifact boundary catches the
  // post-compile plateau before the repeated WMC evaluations below.
  f = mgr.MaybeAutoMinimize(f);
#ifdef TBC_VALIDATE
  // The answer below is only as trustworthy as the circuit it is read off
  // of — re-verify the winning engine's artifact before evaluating.
  ValidateSddOrDie(mgr, f, "Portfolio::RunSdd");
#endif
  return Answer(q, enc, [&](const WeightMap& w) { return mgr.Wmc(f, w); });
}

Result<double> RunDdnnf(const Query& q, Guard& guard) {
  WmcEncoding enc(q.net);
  NnfManager mgr;
  DdnnfCompiler compiler;
  TBC_ASSIGN_OR_RETURN(const NnfId root,
                       compiler.CompileBounded(enc.cnf(), mgr, guard));
#ifdef TBC_VALIDATE
  ValidateNnfOrDie(mgr, root, NnfDialect::kDecisionDnnf, enc.cnf().num_vars(),
                   "Portfolio::RunDdnnf");
#endif
  return Answer(q, enc,
                [&](const WeightMap& w) { return Wmc(mgr, root, w); });
}

Result<double> RunVarElim(const Query& q, Guard& guard) {
  VariableElimination ve(q.net);
  if (q.wants_posterior) {
    // PosteriorBounded re-checks the variable/value bounds (already
    // validated by the facade) and rejects zero-probability evidence.
    return ve.PosteriorBounded(q.v, q.value, q.evidence, guard);
  }
  const auto& target = q.wants_marginal ? q.extended : q.evidence;
  return ve.ProbEvidenceBounded(target, guard);
}

using Stage =
    std::pair<PortfolioEngine, Result<double> (*)(const Query&, Guard&)>;
constexpr std::array<Stage, 3> kStages = {
    Stage{PortfolioEngine::kSdd, RunSdd},
    Stage{PortfolioEngine::kDdnnf, RunDdnnf},
    Stage{PortfolioEngine::kVarElim, RunVarElim},
};

// Above this predicted induced width, the compile arms are forecast to be
// hopeless within any reasonable budget (nodes scale with 2^w), so the
// portfolio runs variable elimination first — same 2^w core cost,
// none of the circuit-construction constant factor — and demotes the
// compilers to fallbacks. The forecast only *routes*; each arm's Guard
// remains the enforcer (DESIGN.md "Structure analysis & cost forecasting").
constexpr uint32_t kVarElimFirstWidth = 20;

// Work budget for the planning analysis (DynGraph pair-inspection units,
// see elimination.h). Planning advises — it must never cost a noticeable
// slice of the budget it is routing, and on encodings with dense primal
// graphs the elimination simulation is cubic-ish, so it runs under a
// fixed deterministic cap and degrades to lower-bound-only routing.
constexpr uint64_t kPlanWorkBudget = uint64_t{1} << 24;

// Per-query routing decision derived from the static structure pass.
struct StagePlan {
  StructureReport report;
  bool valid = false;  // false: planning skipped, fall back to defaults
  // Execution order as indices into kStages, and the deadline divisor for
  // each *position* (first stage gets remaining/share[0], etc.).
  std::array<size_t, kStages.size()> order{{0, 1, 2}};
  std::array<double, kStages.size()> deadline_share{{3.0, 2.0, 1.0}};
};

// Plans under the caller's outer guard: the guard is armed before this
// runs, so analysis time is charged against the query deadline like any
// other work, and an already-expired guard skips planning outright. The
// analysis itself is work-capped (kPlanWorkBudget), so even un-deadlined
// budgets cannot stall here on a dense encoding.
StagePlan PlanStages(const Query& q, const Guard& outer) {
  StagePlan plan;
  if (!outer.Check().ok()) return plan;  // no budget left: legacy defaults
  WmcEncoding enc(q.net);
  StructureOptions opts;
  opts.compute_backbone = false;  // routing needs widths only
  opts.work_budget = kPlanWorkBudget;
  plan.report = AnalyzeCnfStructure(enc.cnf(), opts);
  plan.valid = true;
  TBC_OBSERVE_VALUE("portfolio.plan.width", plan.report.best_width());
  // Route on the best information available: a completed order's width,
  // or — when the analysis truncated with no completed order — the
  // degeneracy lower bound (if even the lower bound is over the
  // threshold, the compile arms are certainly in 2^w trouble).
  if (std::max(plan.report.best_width(), plan.report.width_lower_bound) >
      kVarElimFirstWidth) {
    plan.order = {2, 0, 1};
    // VE gets the first half of the deadline, SDD half the rest.
    plan.deadline_share = {2.0, 2.0, 1.0};
    TBC_COUNT("portfolio.plan.varelim_first");
  }
  return plan;
}

Result<PortfolioAnswer> RunPortfolio(const Query& q, const Budget& budget) {
  TBC_SPAN("portfolio.run");
  // The outer guard is armed *before* planning, so the static analysis is
  // charged to the caller's deadline like every other cost — stage guards
  // below are derived from what remains after it.
  Guard outer(budget);
  const StagePlan plan = PlanStages(q, outer);
  Query planned = q;
  planned.plan = plan.valid ? &plan.report : nullptr;
  // Each stage gets a fresh guard with a slice of whatever deadline is
  // left: 1/3 for the first engine, 1/2 of the remainder for the second,
  // everything for the last (shares shift under a varelim-first plan). The
  // node budget is not divided — it caps the size of any one attempt, not
  // their sum.
  PortfolioAnswer answer;
  Status last_refusal = Status::DeadlineExceeded("no engine attempted");
  for (size_t k = 0; k < kStages.size(); ++k) {
    const size_t i = plan.order[k];
    TBC_RETURN_IF_ERROR(outer.Check());
    Budget stage_budget;
    if (outer.has_deadline()) {
      stage_budget.timeout_ms = outer.RemainingMs() / plan.deadline_share[k];
    }
    stage_budget.max_nodes = budget.max_nodes;
    stage_budget.max_conflicts = budget.max_conflicts;
    stage_budget.max_decisions = budget.max_decisions;
    Guard stage_guard(stage_budget);
    // Each arm's wall time goes to "portfolio.arm.<engine>.us", with a
    // refusal or win counter: dynamic-name metrics, at most three registry
    // lookups per query, far off any hot path.
    const std::string arm =
        std::string("portfolio.arm.") + PortfolioEngineName(kStages[i].first);
    const Timer timer;
    Result<double> r = kStages[i].second(planned, stage_guard);
    TBC_OBSERVE_VALUE_DYN(arm + ".us", timer.Millis() * 1e3);
    if (r.ok()) {
      TBC_COUNT_DYN(arm + ".wins");
      answer.value = *r;
      answer.engine = kStages[i].first;
      return answer;
    }
    TBC_COUNT_DYN(arm + ".refusals");
    if (r.error_code() == StatusCode::kInvalidInput) return r.status();
    answer.attempts.push_back(std::string(PortfolioEngineName(kStages[i].first)) +
                              ": " + r.status().message());
    last_refusal = r.status();
  }
  return last_refusal;
}

Status ValidateQueryVar(const BayesianNetwork& net, BnVar v, int value,
                        const BnInstantiation& evidence) {
  if (net.num_vars() == 0) return Status::InvalidInput("empty network");
  if (v >= net.num_vars()) {
    return Status::InvalidInput("variable " + std::to_string(v) +
                                " out of range");
  }
  if (value < 0 || value >= static_cast<int>(net.cardinality(v))) {
    return Status::InvalidInput("value " + std::to_string(value) +
                                " out of range for variable " +
                                std::to_string(v));
  }
  if (v < evidence.size() && evidence[v] != kUnobserved &&
      evidence[v] != value) {
    return Status::InvalidInput("query contradicts evidence on variable " +
                                std::to_string(v));
  }
  return Status::Ok();
}

}  // namespace

Result<PortfolioAnswer> ProbEvidenceWithFallback(const BayesianNetwork& net,
                                                 const BnInstantiation& evidence,
                                                 const Budget& budget) {
  if (net.num_vars() == 0) return Status::InvalidInput("empty network");
  Query q{net, evidence, evidence};
  return RunPortfolio(q, budget);
}

Result<PortfolioAnswer> MarginalWithFallback(const BayesianNetwork& net,
                                             BnVar v, int value,
                                             const BnInstantiation& evidence,
                                             const Budget& budget) {
  TBC_RETURN_IF_ERROR(ValidateQueryVar(net, v, value, evidence));
  BnInstantiation extended = evidence;
  extended.resize(net.num_vars(), kUnobserved);
  extended[v] = value;
  Query q{net, evidence, extended, v, value};
  q.wants_marginal = true;
  return RunPortfolio(q, budget);
}

Result<PortfolioAnswer> PosteriorWithFallback(const BayesianNetwork& net,
                                              BnVar v, int value,
                                              const BnInstantiation& evidence,
                                              const Budget& budget) {
  TBC_RETURN_IF_ERROR(ValidateQueryVar(net, v, value, evidence));
  BnInstantiation extended = evidence;
  extended.resize(net.num_vars(), kUnobserved);
  extended[v] = value;
  Query q{net, evidence, extended, v, value};
  q.wants_posterior = true;
  return RunPortfolio(q, budget);
}

}  // namespace tbc
