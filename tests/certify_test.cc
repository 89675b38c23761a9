// Certified compilation end to end: every compiler's certificate
// round-trips through the text format and survives the independent
// checker; the certified count matches brute-force enumeration; and each
// corpus mutation is rejected under its pinned rule id.

#include <cstdint>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/bigint.h"
#include "base/random.h"
#include "certify/certificate.h"
#include "certify/checker.h"
#include "certify/emit.h"
#include "certify/trace.h"
#include "certify/up_engine.h"
#include "compiler/ddnnf_compiler.h"
#include "logic/cnf.h"
#include "nnf/queries.h"
#include "obdd/obdd.h"
#include "sdd/compile.h"
#include "sdd/sdd.h"
#include "small_stack.h"
#include "vtree/vtree.h"

namespace tbc {
namespace {

Cnf ParseCnf(const std::string& dimacs) {
  auto parsed = Cnf::ParseDimacs(dimacs);
  EXPECT_TRUE(parsed.ok()) << parsed.status().message();
  return std::move(parsed).value();
}

// Ground truth by enumeration (inputs stay tiny).
uint64_t BruteForceCount(const Cnf& cnf) {
  uint64_t count = 0;
  for (uint64_t bits = 0; bits < (uint64_t{1} << cnf.num_vars()); ++bits) {
    bool sat = true;
    for (size_t i = 0; sat && i < cnf.num_clauses(); ++i) {
      bool clause_sat = false;
      for (Lit l : cnf.clause(i)) {
        const bool value = (bits >> l.var()) & 1;
        if (value == l.positive()) {
          clause_sat = true;
          break;
        }
      }
      sat = clause_sat;
    }
    if (sat) ++count;
  }
  return count;
}

// Round-trips `cert` through the text format and runs the checker,
// expecting a clean verification whose count matches enumeration.
void ExpectVerified(const Certificate& cert, const Cnf& cnf) {
  const std::string text = WriteCertificate(cert);
  auto parsed = ParseCertificate(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message() << "\n" << text;
  const CertifyResult result = CheckCertificate(*parsed);
  EXPECT_TRUE(result.ok()) << result.report.ToText("cert") << "\n" << text;
  ASSERT_TRUE(result.count_certified);
  EXPECT_EQ(result.certified_count, BigUint(BruteForceCount(cnf)))
      << result.certified_count.ToString();
}

const char* kCnfs[] = {
    "p cnf 4 3\n1 2 0\n-1 3 0\n2 -3 4 0\n",
    "p cnf 3 2\n1 -2 0\n2 3 0\n",
    // UNSAT.
    "p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n",
    // Free variables (var 5 unconstrained), duplicate-ish clauses.
    "p cnf 5 3\n1 2 3 0\n-2 -3 0\n1 2 3 0\n",
    // Single unit.
    "p cnf 2 1\n-2 0\n",
    // Empty clause set: everything is a model.
    "p cnf 3 0\n",
};

TEST(CertifyDdnnf, TracedCompilationsVerify) {
  for (const char* dimacs : kCnfs) {
    const Cnf cnf = ParseCnf(dimacs);
    NnfManager mgr;
    DdnnfCompiler compiler;
    DdnnfTrace trace;
    compiler.set_trace(&trace);
    const NnfId root = compiler.Compile(cnf, mgr);
    ExpectVerified(BuildDdnnfCertificate(cnf, mgr, root, &trace,
                                         ModelCount(mgr, root, cnf.num_vars())),
                   cnf);
  }
}

TEST(CertifyDdnnf, TraceFreeCertificateVerifiesSemantically) {
  // No trace attached (or a foreign circuit): the checker must fall back to
  // its own DPLL for CNF |= circuit instead of replaying a trace.
  const Cnf cnf = ParseCnf(kCnfs[0]);
  NnfManager mgr;
  DdnnfCompiler compiler;
  const NnfId root = compiler.Compile(cnf, mgr);
  ExpectVerified(BuildDdnnfCertificate(cnf, mgr, root, nullptr,
                                       ModelCount(mgr, root, cnf.num_vars())),
                 cnf);
}

TEST(CertifyDdnnf, ManagerReuseLeavesStaleNodesOutOfTheArgument) {
  // Compile two different CNFs into the same manager: the second
  // certificate's table snapshot contains the first compile's nodes
  // (including literals over variables the second CNF lacks). The used-node
  // filter must keep them out of the verification.
  NnfManager mgr;
  DdnnfCompiler compiler;
  const Cnf big = ParseCnf("p cnf 6 2\n5 6 0\n-5 -6 0\n");
  compiler.Compile(big, mgr);

  const Cnf small = ParseCnf("p cnf 2 1\n1 2 0\n");
  DdnnfTrace trace;
  compiler.set_trace(&trace);
  const NnfId root = compiler.Compile(small, mgr);
  ExpectVerified(
      BuildDdnnfCertificate(small, mgr, root, &trace,
                            ModelCount(mgr, root, small.num_vars())),
      small);
}

// Seeded random k-CNF over `n` variables (duplicate literals removed).
Cnf RandomCnf(size_t n, size_t m, size_t k, uint64_t seed) {
  Rng rng(seed);
  Cnf cnf(n);
  for (size_t i = 0; i < m; ++i) {
    std::set<Var> vars;
    while (vars.size() < k) vars.insert(static_cast<Var>(rng.Below(n)));
    Clause c;
    for (Var v : vars) c.push_back(Lit(v, rng.Flip(0.5)));
    cnf.AddClause(c);
  }
  return cnf;
}

TEST(CertifyDdnnf, AttachedTraceChangesNothing) {
  // Trace emission is always compiled in, so an attached sink must be a
  // pure observer: the same circuit and the same search statistics as the
  // untraced compile, on instances whose compile hits the component cache
  // (where a hit re-references an earlier trace record). Covers both
  // component modes, since the unsplit mode feeds the same loop.
  size_t with_cache_hits = 0;
  for (const bool use_components : {true, false}) {
    for (uint64_t seed = 0; seed < 20; ++seed) {
      const Cnf cnf = RandomCnf(14, 30, 3, seed + 4100);
      DdnnfOptions options;
      options.use_components = use_components;

      NnfManager plain_mgr;
      DdnnfCompiler plain(options);
      const NnfId plain_root = plain.Compile(cnf, plain_mgr);

      NnfManager traced_mgr;
      DdnnfCompiler traced(options);
      DdnnfTrace trace;
      traced.set_trace(&trace);
      const NnfId traced_root = traced.Compile(cnf, traced_mgr);

      EXPECT_EQ(traced_root, plain_root) << "seed " << seed;
      EXPECT_EQ(traced_mgr.CircuitSize(traced_root),
                plain_mgr.CircuitSize(plain_root))
          << "seed " << seed;
      EXPECT_EQ(traced.stats().decisions, plain.stats().decisions)
          << "seed " << seed;
      EXPECT_EQ(traced.stats().cache_hits, plain.stats().cache_hits)
          << "seed " << seed;
      if (plain.stats().cache_hits == 0) continue;
      ++with_cache_hits;
      ExpectVerified(
          BuildDdnnfCertificate(cnf, traced_mgr, traced_root, &trace,
                                ModelCount(traced_mgr, traced_root, 14)),
          cnf);
    }
  }
  EXPECT_GE(with_cache_hits, 20u);
}

TEST(CertifyObdd, TracedCompilationsVerify) {
  for (const char* dimacs : kCnfs) {
    const Cnf cnf = ParseCnf(dimacs);
    ObddManager mgr(Vtree::IdentityOrder(cnf.num_vars()));
    ObddTrace trace;
    mgr.CompileCnfTraced(cnf, &trace);
    NnfManager scratch;
    const NnfId nroot = mgr.ToNnf(trace.root, scratch);
    ExpectVerified(
        BuildObddCertificate(cnf, std::move(trace),
                             ModelCount(scratch, nroot, cnf.num_vars())),
        cnf);
  }
}

TEST(CertifyObdd, ReusedManagerVerifies) {
  // Two compiles through one manager: the second trace's table snapshot
  // carries the first compile's nodes and its op-cache was cleared on
  // re-attach, so every conjunction still has a recorded step.
  ObddManager mgr(Vtree::IdentityOrder(4));
  const Cnf first = ParseCnf("p cnf 4 2\n1 -4 0\n2 3 0\n");
  ObddTrace t1;
  mgr.CompileCnfTraced(first, &t1);
  NnfManager s1;
  ExpectVerified(
      BuildObddCertificate(first, ObddTrace(t1),
                           ModelCount(s1, mgr.ToNnf(t1.root, s1), 4)),
      first);

  const Cnf second = ParseCnf("p cnf 4 2\n-1 -2 0\n1 4 0\n");
  ObddTrace t2;
  mgr.CompileCnfTraced(second, &t2);
  NnfManager s2;
  ExpectVerified(
      BuildObddCertificate(second, std::move(t2),
                           ModelCount(s2, mgr.ToNnf(t2.root, s2), 4)),
      second);
}

TEST(CertifySdd, CompilationsVerify) {
  for (const char* dimacs : kCnfs) {
    const Cnf cnf = ParseCnf(dimacs);
    const size_t n = cnf.num_vars() > 0 ? cnf.num_vars() : 1;
    SddManager mgr(Vtree::Balanced(Vtree::IdentityOrder(n)));
    const SddId f = CompileCnf(mgr, cnf);
    NnfManager scratch;
    const NnfId nroot = mgr.ToNnf(f, scratch);
    ExpectVerified(BuildSddCertificate(
                       cnf, mgr, f, ModelCount(scratch, nroot, cnf.num_vars())),
                   cnf);
  }
}

TEST(CertifyChecker, BudgetTripReportsBudgetRule) {
  const Cnf cnf = ParseCnf(kCnfs[0]);
  NnfManager mgr;
  DdnnfCompiler compiler;
  const NnfId root = compiler.Compile(cnf, mgr);
  const Certificate cert = BuildDdnnfCertificate(
      cnf, mgr, root, nullptr, ModelCount(mgr, root, cnf.num_vars()));
  CertifyOptions options;
  options.max_work = 1;
  const CertifyResult result = CheckCertificate(cert, options);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.report.HasRule("certify.budget"))
      << result.report.ToText("cert");
}

TEST(CertifyChecker, CyclicTraceIsRejected) {
  // A component whose high branch references the component itself would
  // replay forever; the replay's depth bound (2·|comps| + 1 frames)
  // refuses it.
  const Cnf cnf = ParseCnf(kCnfs[0]);
  NnfManager mgr;
  DdnnfCompiler compiler;
  DdnnfTrace trace;
  compiler.set_trace(&trace);
  const NnfId root = compiler.Compile(cnf, mgr);
  ASSERT_FALSE(trace.comps.empty());
  const uint32_t last = static_cast<uint32_t>(trace.comps.size() - 1);
  trace.comps[last].hi.comps.push_back(last);
  const Certificate cert = BuildDdnnfCertificate(
      cnf, mgr, root, &trace, ModelCount(mgr, root, cnf.num_vars()));
  const CertifyResult result = CheckCertificate(cert);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.report.HasRule("certify.budget"))
      << result.report.ToText("cert");
}

TEST(CertifyDdnnf, DeepTraceReplaysOnASmallStack) {
  // One clause over 2,500 variables: the trace is 2,500 decisions deep.
  // The replay runs on an explicit stack, so it verifies on a thread with
  // a 1 MB stack.
  constexpr size_t kVars = 2500;
  Cnf cnf(kVars);
  Clause wide;
  for (Var v = 0; v < kVars; ++v) wide.push_back(Pos(v));
  cnf.AddClause(wide);
  NnfManager mgr;
  DdnnfCompiler compiler;
  DdnnfTrace trace;
  compiler.set_trace(&trace);
  const NnfId root = compiler.Compile(cnf, mgr);
  ASSERT_EQ(trace.comps.size(), kVars - 1);
  const Certificate cert = BuildDdnnfCertificate(
      cnf, mgr, root, &trace, ModelCount(mgr, root, cnf.num_vars()));
  bool ok = false;
  std::string report;
  RunOnSmallStack([&] {
    const CertifyResult result = CheckCertificate(cert);
    ok = result.ok();
    report = result.report.ToText("cert");
  });
  EXPECT_TRUE(ok) << report;
}

TEST(CertifyChecker, WrongClaimedCountIsRejected) {
  const Cnf cnf = ParseCnf(kCnfs[1]);
  NnfManager mgr;
  DdnnfCompiler compiler;
  const NnfId root = compiler.Compile(cnf, mgr);
  const Certificate cert =
      BuildDdnnfCertificate(cnf, mgr, root, nullptr, BigUint(12345));
  const CertifyResult result = CheckCertificate(cert);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.report.HasRule("certify.count"))
      << result.report.ToText("cert");
}

// ---------------------------------------------------------------------------
// Corpus: every mutated certificate is rejected under its pinned rule id.

struct CorpusCase {
  const char* file;
  const char* rule;
};

const CorpusCase kCorpus[] = {
    {"ddnnf_truncated.cert", "certify.parse"},
    {"ddnnf_bad_literal.cert", "certify.format"},
    {"ddnnf_nondecomposable.cert", "certify.decomposable"},
    {"ddnnf_nondeterministic.cert", "certify.deterministic"},
    {"ddnnf_swapped_top.cert", "certify.replay"},
    {"ddnnf_tampered_count.cert", "certify.count"},
    {"obdd_order_violation.cert", "certify.obdd-ordered"},
    {"obdd_bogus_step.cert", "certify.replay"},
    {"obdd_extra_clause.cert", "certify.circuit-implies-cnf"},
    {"sdd_missing_model.cert", "certify.cnf-implies-circuit"},
    // Declared counts past the lines that follow, a variable count past
    // 2^28 and a literal past int: refused before anything is sized by
    // them or a literal wraps.
    {"ddnnf_huge_trace_count.cert", "certify.parse"},
    {"obdd_huge_node_count.cert", "certify.parse"},
    {"obdd_huge_step_count.cert", "certify.parse"},
    {"obdd_huge_chain_count.cert", "certify.parse"},
    {"ddnnf_huge_var_count.cert", "certify.parse"},
    {"ddnnf_wrapped_literal.cert", "certify.parse"},
};

std::string ReadCorpusFile(const std::string& name) {
  std::ifstream in(std::string(TBC_CORPUS_DIR "/invalid_certificates/") + name);
  EXPECT_TRUE(in.good()) << name;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(CertifyCorpus, EveryMutationRejectedUnderItsRule) {
  for (const CorpusCase& c : kCorpus) {
    const std::string text = ReadCorpusFile(c.file);
    ASSERT_FALSE(text.empty()) << c.file;
    DiagnosticReport report;
    auto parsed = ParseCertificate(text);
    if (!parsed.ok()) {
      report.Add(Severity::kError, "certify.parse", 0, "",
                 parsed.status().message());
    } else {
      report = CheckCertificate(*parsed).report;
    }
    EXPECT_FALSE(report.clean()) << c.file;
    EXPECT_TRUE(report.HasRule(c.rule))
        << c.file << " expected " << c.rule << "\n" << report.ToText(c.file);
  }
}

// ---------------------------------------------------------------------------
// The trusted unit-propagation engine itself.

TEST(UpEngine, PropagatesAndRetractsAssumptionScopes) {
  UpEngine engine(3);
  engine.AddPermanent({Pos(0), Pos(1)});
  engine.AddPermanent({Neg(1), Pos(2)});
  EXPECT_FALSE(engine.in_conflict());

  engine.Push();
  engine.Assume(Neg(0));
  EXPECT_FALSE(engine.in_conflict());
  EXPECT_EQ(engine.Value(Pos(1)), 1);  // unit from clause 1
  EXPECT_EQ(engine.Value(Pos(2)), 1);  // chained
  engine.Pop();
  EXPECT_EQ(engine.Value(Pos(1)), 0);

  // Probing the negation of an implied clause conflicts; a non-implied
  // probe does not.
  EXPECT_TRUE(engine.ProbeConflict({Neg(0), Neg(1)}));
  EXPECT_FALSE(engine.ProbeConflict({Neg(0)}));
}

TEST(UpEngine, RootConflictLatches) {
  UpEngine engine(2);
  engine.AddPermanent({Pos(0)});
  engine.AddPermanent({Neg(0)});
  EXPECT_TRUE(engine.in_conflict());
  EXPECT_TRUE(engine.root_conflict());
}

}  // namespace
}  // namespace tbc
