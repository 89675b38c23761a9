#include "compiler/ddnnf_compiler.h"

#include <string>
#include <utility>
#include <vector>

#include "base/check.h"
#include "base/flat_table.h"
#include "base/observability.h"
#include "compiler/subproblem.h"

#ifdef TBC_VALIDATE
#include "analysis/validate.h"
#endif
#ifdef TBC_CERTIFY
#include "certify/emit.h"
#endif

namespace tbc {

namespace {

using compiler_internal::BcpOutcome;
using compiler_internal::CacheKey;
using compiler_internal::Canonicalize;
using compiler_internal::Clauses;
using compiler_internal::ConditionClauses;
using compiler_internal::PickBranchVar;
using compiler_internal::Propagate;
using compiler_internal::SplitComponents;

class Compilation {
 public:
  // `trace` (borrowed, nullable) collects the component records that the
  // CertBranch arguments below index into.
  Compilation(const DdnnfOptions& options, NnfManager& mgr, DdnnfStats& stats,
              Guard& guard, DdnnfTrace* trace)
      : options_(options),
        mgr_(mgr),
        stats_(stats),
        guard_(guard),
        trace_(trace) {}

  // `branch` (non-null iff a trace is attached) receives this subproblem's
  // derivation: the BCP conflict, or the result node plus the component
  // records it conjoins.
  Result<NnfId> CompileClauses(Clauses clauses, CertBranch* branch) {
    // No Canonicalize here: BCP closure and the component partition are
    // insensitive to clause order and duplicates, and CompileComponent
    // canonicalizes before keying the cache, so the result is identical.
    std::vector<Lit> implied;
    Clauses remaining;
    if (Propagate(std::move(clauses), &implied, &remaining) ==
        BcpOutcome::kConflict) {
      if (branch != nullptr) branch->conflict = true;
      return mgr_.False();
    }
    std::vector<NnfId> conjuncts;
    for (Lit l : implied) conjuncts.push_back(mgr_.Literal(l));
    if (!remaining.empty()) {
      std::vector<Clauses> components;
      if (options_.use_components) {
        components = SplitComponents(std::move(remaining));
        if (components.size() > 1) {
          ++stats_.components_split;
          TBC_COUNT("ddnnf.components_split");
        }
      } else {
        components.push_back(std::move(remaining));
      }
      for (Clauses& comp : components) {
        uint32_t comp_index = 0;
        TBC_ASSIGN_OR_RETURN(
            const NnfId sub,
            CompileComponent(std::move(comp),
                             branch != nullptr ? &comp_index : nullptr));
        if (branch != nullptr) branch->comps.push_back(comp_index);
        conjuncts.push_back(sub);
      }
    }
    const NnfId result = mgr_.And(std::move(conjuncts));
    if (branch != nullptr) branch->node = result;
    return result;
  }

 private:
  // Compiles a single component (no unit clauses after propagation). When
  // tracing, `comp_out` receives the index of this component's CertComp
  // record (a cache hit re-references the original record).
  Result<NnfId> CompileComponent(Clauses clauses, uint32_t* comp_out) {
    Canonicalize(clauses);
    std::string key;
    if (options_.use_cache) {
      // Probe with a reusable buffer; only a miss pays for an owned copy
      // (the copy must survive the recursion below, which reuses probe_).
      compiler_internal::CacheKeyInto(clauses, &probe_);
      if (const NnfId* hit = cache_.Find(probe_)) {
        ++stats_.cache_hits;
        TBC_COUNT("ddnnf.cache_hits");
        if (comp_out != nullptr) {
          const uint32_t* comp_hit = comp_cache_.Find(probe_);
          TBC_DCHECK(comp_hit != nullptr);
          *comp_out = *comp_hit;
        }
        return *hit;
      }
      TBC_COUNT("ddnnf.cache_misses");
      key = probe_;
    }
    ++stats_.decisions;
    TBC_COUNT("ddnnf.decisions");
    // One decision = one created decision node (plus the two literal
    // nodes): charge both budgets here, at the head of the exponential
    // recursion, so a trip surfaces within one decision's work.
    TBC_RETURN_IF_ERROR(guard_.ChargeDecision());
    TBC_RETURN_IF_ERROR(guard_.ChargeNodes(1));
    const Var v = PickBranchVar(clauses);
    TBC_DCHECK(v != kInvalidVar);
    CertComp comp;
    comp.decision = v;
    TBC_ASSIGN_OR_RETURN(
        const NnfId hi,
        CompileClauses(ConditionClauses(clauses, Pos(v)),
                       comp_out != nullptr ? &comp.hi : nullptr));
    TBC_ASSIGN_OR_RETURN(
        const NnfId lo,
        CompileClauses(ConditionClauses(clauses, Neg(v)),
                       comp_out != nullptr ? &comp.lo : nullptr));
    const NnfId result = mgr_.Decision(v, hi, lo);
    if (comp_out != nullptr) {
      comp.node = result;
      *comp_out = static_cast<uint32_t>(trace_->comps.size());
      trace_->comps.push_back(std::move(comp));
      if (options_.use_cache) comp_cache_.Insert(key, *comp_out);
    }
    if (options_.use_cache) cache_.Insert(key, result);
    return result;
  }

  const DdnnfOptions& options_;
  NnfManager& mgr_;
  DdnnfStats& stats_;
  Guard& guard_;
  DdnnfTrace* const trace_;
  FlatMap<std::string, NnfId> cache_;
  std::string probe_;
  FlatMap<std::string, uint32_t> comp_cache_;  // cache_'s keys -> comp index
};

}  // namespace

NnfId DdnnfCompiler::Compile(const Cnf& cnf, NnfManager& mgr) {
  // The unlimited guard never trips, so the bounded path cannot refuse.
  return CompileBounded(cnf, mgr, Guard::Unlimited()).value();
}

Result<NnfId> DdnnfCompiler::CompileBounded(const Cnf& cnf, NnfManager& mgr,
                                            Guard& guard) {
  TBC_SPAN("ddnnf.compile");
  stats_ = DdnnfStats();
  TBC_RETURN_IF_ERROR(guard.Check());
  Clauses clauses(cnf.clauses().begin(), cnf.clauses().end());
  compiler_internal::SortEachClause(clauses);  // invariant for Canonicalize
#ifdef TBC_CERTIFY
  // Certify-every-compile mode: record a trace even when the caller did not
  // attach one, so the checker replays the search instead of re-solving.
  DdnnfTrace certify_trace;
  DdnnfTrace* trace = trace_ != nullptr ? trace_ : &certify_trace;
#else
  DdnnfTrace* trace = trace_;
#endif
  if (trace != nullptr) trace->Clear();
  Compilation run(options_, mgr, stats_, guard, trace);
  Result<NnfId> root = run.CompileClauses(
      std::move(clauses), trace != nullptr ? &trace->top : nullptr);
#ifdef TBC_VALIDATE
  if (root.ok()) {
    ValidateNnfOrDie(mgr, *root, NnfDialect::kDecisionDnnf, cnf.num_vars(),
                     "DdnnfCompiler::CompileBounded");
  }
#endif
#ifdef TBC_CERTIFY
  if (root.ok()) {
    CertifyDdnnfOrDie(cnf, mgr, *root, trace,
                      "DdnnfCompiler::CompileBounded");
  }
#endif
  return root;
}

}  // namespace tbc
