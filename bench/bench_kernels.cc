// Kernel micro-benchmarks: the hot paths the flat-table/arena kernel layer
// targets, shaped after the paper-figure benches (Fig 8 model counting,
// Fig 14 PSDD evaluation, Fig 22 hierarchical map compilation) plus the
// raw SDD/OBDD apply loops underneath them.
//
// This file is deliberately restricted to APIs that exist both before and
// after the kernel layer (compile, ModelCount/Wmc, MarginalWmc/MaxWmc,
// Psdd evaluation, map compilation, E-MAJSAT's MaxCountOverY, the serve
// codec's Serialize/Parse):
// tools/run_bench.sh compiles this exact source against an export of the
// pre-PR baseline and against the current tree, runs both, and writes the
// before/after medians to BENCH_kernels.json. Seeds are pinned; every
// workload reports the median of 5 runs, the query kernels also report ns
// per circuit edge, the BN compiles (at three network sizes) ns per
// decision, their warm-ups (gap plan plus model count) and a count past
// 2^64 ns per edge, and the serve codec ns per protocol line.
//
// Usage: bench_kernels [--kernel=NAME] [output.json]   (default: stdout)
//        bench_kernels --list
// --kernel runs that one kernel alone, so a kernel's timing does not
// depend on which kernels ran before it in the same process; --list prints
// the kernel names in report order.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "base/random.h"
#include "base/timer.h"
#include "bayes/network.h"
#include "bayes/wmc_encoding.h"

// run_bench.sh compiles this exact source against the pre-observability
// baseline, which has no base/observability.h — gate on the
// header so both builds succeed and the report degrades to "stats": null.
#if __has_include("base/observability.h")
#include "base/observability.h"
#define BENCH_HAVE_OBS 1
#else
#define BENCH_HAVE_OBS 0
#endif
#include "certify/trace.h"
#include "compiler/ddnnf_compiler.h"
#include "core/solvers.h"
#include "nnf/nnf.h"
#include "nnf/queries.h"
#include "obdd/obdd.h"
#include "psdd/psdd.h"
#include "sdd/compile.h"
#include "sdd/minimize.h"
#include "sdd/sdd.h"
#include "serve/protocol.h"
#include "spaces/hierarchical.h"
#include "vtree/vtree.h"

namespace {

using namespace tbc;

Cnf RandomCnf(size_t n, size_t m, uint64_t seed) {
  Rng rng(seed);
  Cnf cnf(n);
  for (size_t i = 0; i < m; ++i) {
    std::set<Var> vars;
    while (vars.size() < 3) vars.insert(static_cast<Var>(rng.Below(n)));
    Clause c;
    for (Var v : vars) c.push_back(Lit(v, rng.Flip(0.5)));
    cnf.AddClause(c);
  }
  return cnf;
}

WeightMap RandomWeights(size_t n, uint64_t seed) {
  Rng rng(seed);
  WeightMap w(n);
  for (Var v = 0; v < n; ++v) {
    const double p = 0.05 + 0.9 * rng.Uniform();
    w.Set(Pos(v), p);
    w.Set(Neg(v), 1.0 - p);
  }
  return w;
}

// Sink defeating dead-code elimination across runs.
double g_sink = 0.0;

// Fig 8 shape: top-down d-DNNF compilation (flat subproblems, fingerprinted
// component cache) followed by repeated linear counting passes.
void BenchDdnnfCountWmc() {
  for (size_t n : {16, 20, 24, 28}) {
    const Cnf cnf = RandomCnf(n, n * 3, 7 + n);
    const WeightMap w = RandomWeights(n, 100 + n);
    NnfManager mgr;
    DdnnfCompiler compiler;
    const NnfId root = compiler.Compile(cnf, mgr);
    for (int i = 0; i < 20; ++i) {
      g_sink += ModelCount(mgr, root, n).ToDouble();
      g_sink += Wmc(mgr, root, w);
    }
  }
}

// The compile behind every cold tbc_serve request: the WMC encoding of
// servebench's banded Bayesian network (servebench/serve_bench.cc,
// BandedNetwork: binary variables, parents among the 4 predecessors; at
// its 24 variables, 214 Boolean variables and 736 clauses). Run at three
// network sizes from the same generator, so a per-decision cost that grows
// with size shows as a trend, and reported per decision, the unit of DPLL
// work, so it compares with ddnnf_count_wmc's random CNFs. Each size runs
// kBnCompileWork / size compiles.
constexpr size_t kBnSizes[] = {12, 24, 48};
constexpr int kBnCompileWork = 480;

const WmcEncoding& BandedBnEncoding(size_t bn_vars) {
  static std::map<size_t, const WmcEncoding*> encodings;
  const WmcEncoding*& encoding = encodings[bn_vars];
  if (encoding != nullptr) return *encoding;
  Rng shape(0x5e7eb0c4ull);
  Rng params(1);
  // Never freed: the encoding keeps a reference to its network.
  BayesianNetwork& net = *new BayesianNetwork;
  for (size_t v = 0; v < bn_vars; ++v) {
    const size_t window = std::min<size_t>(v, 4);
    const size_t count =
        window == 0 ? 0 : shape.Below(std::min<size_t>(window, 3) + 1);
    std::vector<BnVar> parents;
    while (parents.size() < count) {
      const BnVar p = static_cast<BnVar>(v - 1 - shape.Below(window));
      if (std::find(parents.begin(), parents.end(), p) == parents.end()) {
        parents.push_back(p);
      }
    }
    std::vector<double> cpt_true(size_t{1} << parents.size());
    for (double& x : cpt_true) x = 0.05 + 0.9 * params.Uniform();
    net.AddBinary(std::string("x").append(std::to_string(v)),
                  std::move(parents), std::move(cpt_true));
  }
  encoding = new WmcEncoding(net);
  return *encoding;
}

int BnCompileReps(size_t bn_vars) {
  return kBnCompileWork / static_cast<int>(bn_vars);
}

double BnCompileDecisionsPerRun(size_t bn_vars) {
  NnfManager mgr;
  DdnnfCompiler compiler;
  compiler.Compile(BandedBnEncoding(bn_vars).cnf(), mgr);
  return static_cast<double>(compiler.stats().decisions) *
         BnCompileReps(bn_vars);
}

void BenchDdnnfCompileBn(size_t bn_vars) {
  const Cnf& cnf = BandedBnEncoding(bn_vars).cnf();
  for (int i = 0; i < BnCompileReps(bn_vars); ++i) {
    NnfManager mgr;
    DdnnfCompiler compiler;
    g_sink += static_cast<double>(compiler.Compile(cnf, mgr));
  }
}

// Warmed d-DNNF query kernels: circuits compiled once, outside the timed
// region, then each run answers kQueryReps queries per circuit. The first
// (untimed) run warms whatever the library caches per root, so the timed
// runs price a cache-hit query, the serving path's steady state. Reported
// per edge of the compiled circuit, so the three kernels compare on one
// scale across sizes.
constexpr int kQueryReps = 20;

struct QueryCircuit {
  QueryCircuit(size_t num_vars, uint64_t seed)
      : n(num_vars), w(RandomWeights(num_vars, seed + 1)) {
    DdnnfCompiler compiler;
    root = compiler.Compile(RandomCnf(n, n * 3, seed), mgr);
  }
  size_t n;
  WeightMap w;
  NnfManager mgr;
  NnfId root = kInvalidNnf;
};

std::vector<std::unique_ptr<QueryCircuit>>& QueryCircuits() {
  static auto* circuits = [] {
    auto* out = new std::vector<std::unique_ptr<QueryCircuit>>;
    for (size_t n : {24, 32, 40}) {
      out->push_back(std::make_unique<QueryCircuit>(n, 300 + n));
    }
    return out;
  }();
  return *circuits;
}

double QueryEdgesPerRun() {
  double edges = 0.0;
  for (const auto& c : QueryCircuits()) {
    edges += static_cast<double>(c->mgr.CircuitSize(c->root));
  }
  return edges * kQueryReps;
}

void BenchNnfWmc() {
  for (const auto& c : QueryCircuits()) {
    for (int i = 0; i < kQueryReps; ++i) g_sink += Wmc(c->mgr, c->root, c->w);
  }
}

void BenchNnfMarginals() {
  for (const auto& c : QueryCircuits()) {
    for (int i = 0; i < kQueryReps; ++i) {
      g_sink += MarginalWmc(c->mgr, c->root, c->w)[0];
    }
  }
}

void BenchNnfMpe() {
  for (const auto& c : QueryCircuits()) {
    for (int i = 0; i < kQueryReps; ++i) {
      g_sink += MaxWmc(c->mgr, c->root, c->w, c->n).weight;
    }
  }
}

// E-MAJSAT's counting half (paper Fig 10b), the MAP-family path:
// CircuitSolvers::MaxCountOverY compiles each seeded random 3-CNF on a
// vtree constrained for y|z, exports the SDD to NNF and runs one max-sum
// pass, max over the first third of the variables and sum over the rest.
// Unlike the d-DNNF compiler's BN encodings, these exports have or-gate
// gaps.
void BenchEMajSatCount() {
  for (size_t n : {12, 16, 20}) {
    const Cnf cnf = RandomCnf(n, 2 * n, 80 + n);
    std::vector<Var> y(n / 3);
    for (Var v = 0; v < y.size(); ++v) y[v] = v;
    g_sink += CircuitSolvers::MaxCountOverY(cnf, y).ToDouble();
  }
}

// The tbc_serve wire codec around a cache-hit query, in servebench's shape:
// `wmc` requests carrying the banded BN's DIMACS text and one weight per
// non-unit literal, and `mar` replies with one `marg` line per literal (428
// lines). The weights and marginals are seeded random values, and each run
// serializes and parses kCodecReps request/reply pairs through the public
// Serialize()/Parse() pair, cycling through kCodecMessages distinct ones:
// a live server never reads the same digits twice, and one pair re-parsed
// over and over lets the branch predictor learn its digits, which rewards
// branchy digit decoders that lose on servebench. Reported per protocol
// line (the CNF blob's own lines excluded: the codec copies the blob
// without reading it).
constexpr int kCodecReps = 100;
constexpr size_t kCodecMessages = 32;

struct CodecMessages {
  std::vector<serve::Request> requests;
  std::vector<serve::Response> replies;
  double lines = 0.0;  // protocol lines in one run's kCodecReps pairs
};

const CodecMessages& ServeCodecMessages() {
  static const CodecMessages* messages = [] {
    auto* m = new CodecMessages;
    const WmcEncoding& enc = BandedBnEncoding(24);  // servebench's size
    const WeightMap& w = enc.weights();
    const uint32_t num_lits = static_cast<uint32_t>(2 * enc.num_bool_vars());
    const std::string cnf_text = enc.cnf().ToDimacs();
    Rng rng(0xc0dec);
    for (size_t i = 0; i < kCodecMessages; ++i) {
      serve::Request& request = m->requests.emplace_back();
      request.op = serve::Op::kWmc;
      request.cnf_text = cnf_text;
      for (uint32_t code = 0; code < num_lits; ++code) {
        const Lit l = Lit::FromCode(code);
        if (w[l] != 1.0) request.weights.emplace_back(l.ToDimacs(), rng.Uniform());
      }
      serve::Response& reply = m->replies.emplace_back();
      for (uint32_t code = 0; code < num_lits; ++code) {
        reply.marginals.emplace_back(Lit::FromCode(code).ToDimacs(),
                                     rng.Uniform());
      }
      reply.circuit_nodes = 2000;
      reply.circuit_edges = 3000;
      reply.artifact = "00112233445566778899aabbccddeeff";
      reply.cache_hit = true;
    }
    const auto newlines = [](const std::string& text) {
      return static_cast<double>(std::count(text.begin(), text.end(), '\n'));
    };
    for (int i = 0; i < kCodecReps; ++i) {
      const serve::Request& request = m->requests[i % kCodecMessages];
      m->lines += newlines(request.Serialize()) - newlines(request.cnf_text) +
                  newlines(m->replies[i % kCodecMessages].Serialize());
    }
    return m;
  }();
  return *messages;
}

void BenchServeCodec() {
  const CodecMessages& m = ServeCodecMessages();
  for (int i = 0; i < kCodecReps; ++i) {
    const auto request =
        serve::Request::Parse(m.requests[i % kCodecMessages].Serialize());
    const auto reply =
        serve::Response::Parse(m.replies[i % kCodecMessages].Serialize());
    g_sink += request->weights.back().second + reply->marginals.back().second;
  }
}

// Fig 14 shape: PSDD built on a compiled SDD base, then dense evaluation —
// complete-input probabilities, evidence probabilities, and marginals.
void BenchPsddEval() {
  const size_t n = 14;
  const Cnf cnf = RandomCnf(n, n + 4, 51);
  SddManager mgr(Vtree::Balanced(Vtree::IdentityOrder(n)));
  const SddId base = CompileCnf(mgr, cnf);
  if (base == mgr.False()) return;  // pinned seed keeps this satisfiable
  const Psdd psdd(mgr, base);
  Rng rng(52);
  for (int i = 0; i < 2000; ++i) {
    Assignment x(n);
    for (Var v = 0; v < n; ++v) x[v] = rng.Flip(0.5);
    g_sink += psdd.Probability(x);
  }
  for (int i = 0; i < 500; ++i) {
    PsddEvidence e(n, Obs::kUnknown);
    for (Var v = 0; v < n; ++v) {
      const uint64_t r = rng.Below(3);
      if (r < 2) e[v] = r == 0 ? Obs::kFalse : Obs::kTrue;
    }
    g_sink += psdd.ProbabilityEvidence(e);
    const std::vector<double> marg = psdd.Marginals(e, /*normalized=*/false);
    g_sink += marg[0];
  }
}

// Certify-overhead pair: the Fig 8 compile workload with and without a
// derivation-trace sink attached. The traced/plain ratio of the two
// "after" medians is the price the certify layer charges for a checkable
// compilation; the certification gate holds it at <= 1.25x.
void BenchCertifyFig8Plain() {
  for (size_t n : {16, 20, 24, 28}) {
    const Cnf cnf = RandomCnf(n, n * 3, 7 + n);
    NnfManager mgr;
    DdnnfCompiler compiler;
    const NnfId root = compiler.Compile(cnf, mgr);
    g_sink += ModelCount(mgr, root, n).ToDouble();
  }
}

void BenchCertifyFig8Traced() {
  for (size_t n : {16, 20, 24, 28}) {
    const Cnf cnf = RandomCnf(n, n * 3, 7 + n);
    NnfManager mgr;
    DdnnfCompiler compiler;
    DdnnfTrace trace;
    compiler.set_trace(&trace);
    const NnfId root = compiler.Compile(cnf, mgr);
    g_sink += ModelCount(mgr, root, n).ToDouble();
    g_sink += static_cast<double>(trace.comps.size());
  }
}

// Fig 22 shape: hierarchical map compilation (OBDD/SDD apply churn through
// the unique table and apply cache).
void BenchHierarchicalMap() {
  HierarchicalMap map(6, 6, 2);
  const GraphNode s = 0;
  const GraphNode t = static_cast<GraphNode>(map.grid().num_nodes() - 1);
  const auto stats = map.Compile(s, t);
  g_sink += static_cast<double>(stats.hier_nodes);
}

// Raw SDD apply loop: clause-by-clause CNF conjoin (unique table + op
// cache are the entire cost).
void BenchSddApply() {
  const size_t n = 22;
  const Cnf cnf = RandomCnf(n, n * 2, 61);
  SddManager mgr(Vtree::Balanced(Vtree::IdentityOrder(n)));
  const SddId f = CompileCnf(mgr, cnf);
  const WeightMap w = RandomWeights(n, 62);
  for (int i = 0; i < 10; ++i) g_sink += mgr.Wmc(f, w);
}

// Vtree minimization through the stable MinimizeVtree entry point: one
// compile, one collect, then the in-place rotate/swap search (budget and
// seed pinned, so both trees walk the same seeded neighbor sequence).
void BenchSddMinimize() {
  for (size_t n : {12, 16, 20}) {
    const Cnf cnf = RandomCnf(n, n * 3, 7 + n);
    const MinimizeResult r = MinimizeVtree(
        cnf, Vtree::RightLinear(Vtree::IdentityOrder(n)), 60, 17);
    g_sink += static_cast<double>(r.size + r.iterations);
  }
}

// Minimize-enabled SDD suite variant: the sdd_apply workload compiled with
// the size-triggered auto-minimize hook armed (aggressive mode).
void BenchSddCompileAutoMinimize() {
  const SddAutoMinimizeOptions saved = SddManager::DefaultAutoMinimize();
  SddManager::SetDefaultAutoMinimize(
      SddAutoMinimizeOptions::ForMode(SddMinimizeMode::kAggressive));
  const size_t n = 22;
  const Cnf cnf = RandomCnf(n, n * 2, 61);
  SddManager mgr(Vtree::RightLinear(Vtree::IdentityOrder(n)));
  const SddId f = CompileCnf(mgr, cnf);
  const WeightMap w = RandomWeights(n, 62);
  for (int i = 0; i < 10; ++i) g_sink += mgr.Wmc(f, w);
  SddManager::SetDefaultAutoMinimize(saved);
}

// Raw OBDD apply loop plus repeated counting passes.
void BenchObddApply() {
  const size_t n = 24;
  const Cnf cnf = RandomCnf(n, n * 2, 71);
  std::vector<Var> order(n);
  for (Var v = 0; v < n; ++v) order[v] = v;
  ObddManager mgr(order);
  const ObddId f = mgr.CompileCnf(cnf);
  const WeightMap w = RandomWeights(n, 72);
  for (int i = 0; i < 20; ++i) {
    g_sink += mgr.ModelCount(f).ToDouble();
    g_sink += mgr.Wmc(f, w);
  }
}

struct Entry {
  std::string name;
  std::vector<double> runs_ms;
  double median_ms = 0.0;
  double edges_per_run = 0.0;  // > 0: also report ns per circuit edge
  double decisions_per_run = 0.0;  // > 0: also report ns per decision
  double lines_per_run = 0.0;  // > 0: also report ns per protocol line
};

// `timed_run()` performs one run and returns the milliseconds it counts.
template <typename TimedRun>
Entry MeasureTimed(const std::string& name, TimedRun&& timed_run,
                   double edges_per_run = 0.0) {
  Entry e;
  e.name = name;
  e.edges_per_run = edges_per_run;
  timed_run();  // warm-up: page in code, fill allocator pools
  for (int r = 0; r < 5; ++r) e.runs_ms.push_back(timed_run());
  std::vector<double> sorted = e.runs_ms;
  std::sort(sorted.begin(), sorted.end());
  e.median_ms = sorted[sorted.size() / 2];
  return e;
}

template <typename Fn>
Entry Measure(const std::string& name, Fn&& fn, double edges_per_run = 0.0) {
  return MeasureTimed(
      name,
      [&fn] {
        Timer t;
        fn();
        return t.Millis();
      },
      edges_per_run);
}

// The warm-up every cold tbc_serve request pays after its compile
// (serve/artifact_cache.cc, WarmArtifact): the root's gap plan, then its
// model count, on a freshly compiled circuit of the banded BN. Each run
// compiles BnCompileReps(size) circuits outside the timed region and
// times their warm-ups; reported per circuit edge.
Entry MeasureNnfWarmBn(const std::string& name, size_t bn_vars) {
  const Cnf& cnf = BandedBnEncoding(bn_vars).cnf();
  const int reps = BnCompileReps(bn_vars);
  double edges = 0.0;
  Entry e = MeasureTimed(name, [&] {
    std::vector<NnfManager> mgrs(reps);
    std::vector<NnfId> roots;
    for (NnfManager& mgr : mgrs) {
      DdnnfCompiler compiler;
      roots.push_back(compiler.Compile(cnf, mgr));
    }
    edges = static_cast<double>(mgrs[0].CircuitSize(roots[0])) * reps;
    Timer t;
    for (int i = 0; i < reps; ++i) {
      g_sink += static_cast<double>(
          mgrs[i].GapPlanCached(roots[i]).schedule.num_reachable());
      g_sink += ModelCount(mgrs[i], roots[i], cnf.num_vars()).ToDouble();
    }
    return t.Millis();
  });
  e.edges_per_run = edges;
  return e;
}


// The other side of ModelCountBounded's 64-bit first try: the banded BN
// at 96 variables, whose encoding counts 2^96 (one model per network
// instantiation). Each run compiles BnCompileReps(96) circuits and builds
// their gap plans outside the timed region, then times their model
// counts; reported per circuit edge.
Entry MeasureNnfCountBn96(const std::string& name) {
  const Cnf& cnf = BandedBnEncoding(96).cnf();
  const int reps = BnCompileReps(96);
  double edges = 0.0;
  Entry e = MeasureTimed(name, [&] {
    std::vector<NnfManager> mgrs(reps);
    std::vector<NnfId> roots;
    for (NnfManager& mgr : mgrs) {
      DdnnfCompiler compiler;
      roots.push_back(compiler.Compile(cnf, mgr));
      mgr.GapPlanCached(roots.back());
    }
    edges = static_cast<double>(mgrs[0].CircuitSize(roots[0])) * reps;
    Timer t;
    for (int i = 0; i < reps; ++i) {
      g_sink += ModelCount(mgrs[i], roots[i], cnf.num_vars()).ToDouble();
    }
    return t.Millis();
  });
  e.edges_per_run = edges;
  return e;
}

// Every kernel, in report order, each as the measurement that produces
// its entry. The BN compile runs at each of kBnSizes.
std::vector<std::pair<std::string, std::function<Entry()>>> Kernels() {
  std::vector<std::pair<std::string, std::function<Entry()>>> kernels;
  const auto add = [&kernels](const std::string& name, void (*fn)(),
                              double (*edges)() = nullptr) {
    kernels.emplace_back(name, [name, fn, edges] {
      return Measure(name, fn, edges != nullptr ? edges() : 0.0);
    });
  };
  add("ddnnf_count_wmc", BenchDdnnfCountWmc);
  for (const size_t bn_vars : kBnSizes) {
    const std::string name = "ddnnf_compile_bn" + std::to_string(bn_vars);
    kernels.emplace_back(name, [name, bn_vars] {
      Entry e = Measure(name, [bn_vars] { BenchDdnnfCompileBn(bn_vars); });
      e.decisions_per_run = BnCompileDecisionsPerRun(bn_vars);
      return e;
    });
  }
  for (const size_t bn_vars : kBnSizes) {
    const std::string name = "nnf_warm_bn" + std::to_string(bn_vars);
    kernels.emplace_back(name, [name, bn_vars] {
      return MeasureNnfWarmBn(name, bn_vars);
    });
  }
  kernels.emplace_back("nnf_count_bn96",
                       [] { return MeasureNnfCountBn96("nnf_count_bn96"); });
  add("nnf_wmc", BenchNnfWmc, QueryEdgesPerRun);
  add("nnf_marginals", BenchNnfMarginals, QueryEdgesPerRun);
  add("nnf_mpe", BenchNnfMpe, QueryEdgesPerRun);
  add("emajsat_count", BenchEMajSatCount);
  add("certify_fig8_plain", BenchCertifyFig8Plain);
  add("certify_fig8_traced", BenchCertifyFig8Traced);
  add("psdd_eval", BenchPsddEval);
  add("hierarchical_map", BenchHierarchicalMap);
  add("sdd_apply_wmc", BenchSddApply);
  add("sdd_minimize", BenchSddMinimize);
  add("sdd_compile_autominimize", BenchSddCompileAutoMinimize);
  add("obdd_apply_count", BenchObddApply);
  kernels.emplace_back("serve_codec", [] {
    Entry e = Measure("serve_codec", BenchServeCodec);
    e.lines_per_run = ServeCodecMessages().lines;
    return e;
  });
  return kernels;
}

}  // namespace

int main(int argc, char** argv) {
  std::string only;
  const char* path = nullptr;
  bool list = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--kernel=", 0) == 0) {
      only = arg.substr(std::string("--kernel=").size());
    } else if (arg == "--list") {
      list = true;
    } else if (arg.rfind("--", 0) == 0 || path != nullptr) {
      std::fprintf(stderr,
                   "usage: bench_kernels [--list] [--kernel=NAME] "
                   "[output.json]\n");
      return 1;
    } else {
      path = argv[i];
    }
  }
  std::vector<Entry> entries;
  bool found = false;
  for (const auto& [name, measure] : Kernels()) {
    if (list) {
      std::printf("%s\n", name.c_str());
    } else if (only.empty() || only == name) {
      found = true;
      entries.push_back(measure());
    }
  }
  if (list) return 0;
  if (!found) {
    std::fprintf(stderr, "bench_kernels: no kernel named %s\n", only.c_str());
    return 1;
  }

  std::FILE* out = stdout;
  if (path != nullptr) {
    out = std::fopen(path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", path);
      return 1;
    }
  }
  std::fprintf(out, "{\n  \"median_of\": 5,\n  \"benchmarks\": [\n");
  for (size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    std::fprintf(out, "    {\"name\": \"%s\", \"median_ms\": %.3f, \"runs_ms\": [",
                 e.name.c_str(), e.median_ms);
    for (size_t r = 0; r < e.runs_ms.size(); ++r) {
      std::fprintf(out, "%s%.3f", r ? ", " : "", e.runs_ms[r]);
    }
    std::fprintf(out, "]");
    if (e.edges_per_run > 0.0) {
      std::fprintf(out, ", \"ns_per_edge\": %.3f",
                   e.median_ms * 1e6 / e.edges_per_run);
    }
    if (e.decisions_per_run > 0.0) {
      std::fprintf(out, ", \"ns_per_decision\": %.1f",
                   e.median_ms * 1e6 / e.decisions_per_run);
    }
    if (e.lines_per_run > 0.0) {
      std::fprintf(out, ", \"ns_per_line\": %.2f",
                   e.median_ms * 1e6 / e.lines_per_run);
    }
    std::fprintf(out, "}%s\n", i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  // The observability registry accumulated over every run above: the same
  // counters/gauges/histograms schema kc_cli --stats=json emits (pinned by
  // tools/stats_schema.json), so bench reports and CLI stats are directly
  // comparable.
#if BENCH_HAVE_OBS
  const std::string stats = tbc::Observability::Global().RenderJson();
  // RenderJson ends with "}\n": trim the newline to embed as a value.
  std::fprintf(out, "  \"stats\": %.*s\n",
               static_cast<int>(stats.size() - 1), stats.c_str());
#else
  std::fprintf(out, "  \"stats\": null\n");
#endif
  std::fprintf(out, "}\n");
  if (out != stdout) std::fclose(out);
  std::fprintf(stderr, "sink=%.6f\n", g_sink);  // keep the work observable
  return 0;
}
