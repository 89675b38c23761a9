// Kernel micro-benchmarks: the hot paths the flat-table/arena kernel layer
// targets, shaped after the paper-figure benches (Fig 8 model counting,
// Fig 14 PSDD evaluation, Fig 22 hierarchical map compilation) plus the
// raw SDD/OBDD apply loops underneath them.
//
// This file is deliberately restricted to APIs that exist both before and
// after the kernel layer (compile, ModelCount/Wmc, MarginalWmc/MaxWmc,
// Psdd evaluation, map compilation, the serve codec's Serialize/Parse):
// tools/run_bench.sh compiles this exact source against an export of the
// pre-PR baseline and against the current tree, runs both, and writes the
// before/after medians to BENCH_kernels.json. Seeds are pinned; every
// workload reports the median of 5 runs, the query kernels also report ns
// per circuit edge, the BN compile ns per decision, and the serve codec ns
// per protocol line.
//
// Usage: bench_kernels [output.json]   (default: stdout)

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
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
// BandedNetwork: 24 binary variables, parents among the 4 predecessors;
// 214 Boolean variables, 736 clauses). Reported per decision, the unit of
// DPLL work, so it compares with ddnnf_count_wmc's random CNFs.
constexpr int kBnCompileReps = 20;

const WmcEncoding& BandedBnEncoding() {
  static const WmcEncoding* encoding = [] {
    Rng shape(0x5e7eb0c4ull);
    Rng params(1);
    // Never freed: the encoding keeps a reference to its network.
    BayesianNetwork& net = *new BayesianNetwork;
    for (size_t v = 0; v < 24; ++v) {
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
      net.AddBinary("x" + std::to_string(v), std::move(parents),
                    std::move(cpt_true));
    }
    return new WmcEncoding(net);
  }();
  return *encoding;
}

const Cnf& BandedBnCnf() { return BandedBnEncoding().cnf(); }

double BnCompileDecisionsPerRun() {
  NnfManager mgr;
  DdnnfCompiler compiler;
  compiler.Compile(BandedBnCnf(), mgr);
  return static_cast<double>(compiler.stats().decisions) * kBnCompileReps;
}

void BenchDdnnfCompileBn() {
  for (int i = 0; i < kBnCompileReps; ++i) {
    NnfManager mgr;
    DdnnfCompiler compiler;
    g_sink += static_cast<double>(compiler.Compile(BandedBnCnf(), mgr));
  }
}

// Warmed d-DNNF query kernels: circuits compiled once, outside the timed
// region, then each run answers kQueryReps queries per circuit. The first
// (untimed) run warms whatever the library caches per root, so the timed
// runs price a cache-hit query, the serving path's steady state. Reported
// per edge of the compiled circuit (before any smoothing), so the three
// kernels compare on one scale across sizes.
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

// The tbc_serve wire codec around a cache-hit query, in servebench's shape:
// a `wmc` request carrying the banded BN's DIMACS text and its non-unit
// weights, and a `mar` reply with one `marg` line per literal (428 lines).
// Each run serializes and parses both kCodecReps times through the public
// Serialize()/Parse() pair; reported per protocol line (the CNF blob's
// own lines excluded: the codec copies the blob without reading it).
constexpr int kCodecReps = 100;

struct CodecMessages {
  serve::Request request;
  serve::Response reply;
  double lines = 0.0;  // protocol lines in one request plus one reply
};

const CodecMessages& ServeCodecMessages() {
  static const CodecMessages* messages = [] {
    auto* m = new CodecMessages;
    const WmcEncoding& enc = BandedBnEncoding();
    const WeightMap& w = enc.weights();
    const uint32_t num_lits = static_cast<uint32_t>(2 * enc.num_bool_vars());
    m->request.op = serve::Op::kWmc;
    m->request.cnf_text = enc.cnf().ToDimacs();
    for (uint32_t code = 0; code < num_lits; ++code) {
      const Lit l = Lit::FromCode(code);
      if (w[l] != 1.0) m->request.weights.emplace_back(l.ToDimacs(), w[l]);
    }
    Rng rng(0xc0dec);
    for (uint32_t code = 0; code < num_lits; ++code) {
      m->reply.marginals.emplace_back(Lit::FromCode(code).ToDimacs(),
                                      rng.Uniform());
    }
    m->reply.circuit_nodes = 2000;
    m->reply.circuit_edges = 3000;
    m->reply.artifact = "00112233445566778899aabbccddeeff";
    m->reply.cache_hit = true;
    const auto newlines = [](const std::string& text) {
      return static_cast<double>(std::count(text.begin(), text.end(), '\n'));
    };
    m->lines = newlines(m->request.Serialize()) -
               newlines(m->request.cnf_text) + newlines(m->reply.Serialize());
    return m;
  }();
  return *messages;
}

void BenchServeCodec() {
  const CodecMessages& m = ServeCodecMessages();
  for (int i = 0; i < kCodecReps; ++i) {
    const auto request = serve::Request::Parse(m.request.Serialize());
    const auto reply = serve::Response::Parse(m.reply.Serialize());
    g_sink += static_cast<double>(request->weights.size()) +
              reply->marginals.back().second;
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

// Vtree minimization through the stable MinimizeVtree entry point: the
// baseline library recompiles the CNF for every candidate neighbor, the
// current one rotates/swaps the live SDD in place — so the before/after
// ratio of this kernel IS the dynamic-minimization speedup (budget and
// seed pinned; both searches walk the same seeded neighbor sequence).
void BenchSddMinimize() {
  for (size_t n : {12, 16, 20}) {
    const Cnf cnf = RandomCnf(n, n * 3, 7 + n);
    const MinimizeResult r = MinimizeVtree(
        cnf, Vtree::RightLinear(Vtree::IdentityOrder(n)), 60, 17);
    g_sink += static_cast<double>(r.size + r.iterations);
  }
}

// Minimize-enabled SDD suite variant: the sdd_apply workload compiled with
// the size-triggered auto-minimize hook armed. Trees that predate the hook
// (no TBC_SDD_HAS_INPLACE_MINIMIZE in sdd/minimize.h) run the plain
// compile, so the before/after ratio prices the hook against doing nothing.
void BenchSddCompileAutoMinimize() {
#ifdef TBC_SDD_HAS_INPLACE_MINIMIZE
  const SddAutoMinimizeOptions saved = SddManager::DefaultAutoMinimize();
  SddAutoMinimizeOptions opts =
      SddAutoMinimizeOptions::ForMode(SddMinimizeMode::kAggressive);
  SddManager::SetDefaultAutoMinimize(opts);
#endif
  const size_t n = 22;
  const Cnf cnf = RandomCnf(n, n * 2, 61);
  SddManager mgr(Vtree::RightLinear(Vtree::IdentityOrder(n)));
  const SddId f = CompileCnf(mgr, cnf);
  const WeightMap w = RandomWeights(n, 62);
  for (int i = 0; i < 10; ++i) g_sink += mgr.Wmc(f, w);
#ifdef TBC_SDD_HAS_INPLACE_MINIMIZE
  SddManager::SetDefaultAutoMinimize(saved);
#endif
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

template <typename Fn>
Entry Measure(const std::string& name, Fn&& fn, double edges_per_run = 0.0) {
  Entry e;
  e.name = name;
  e.edges_per_run = edges_per_run;
  fn();  // warm-up: page in code, fill allocator pools
  for (int r = 0; r < 5; ++r) {
    Timer t;
    fn();
    e.runs_ms.push_back(t.Millis());
  }
  std::vector<double> sorted = e.runs_ms;
  std::sort(sorted.begin(), sorted.end());
  e.median_ms = sorted[sorted.size() / 2];
  return e;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<Entry> entries;
  entries.push_back(Measure("ddnnf_count_wmc", BenchDdnnfCountWmc));
  Entry compile_bn = Measure("ddnnf_compile_bn", BenchDdnnfCompileBn);
  compile_bn.decisions_per_run = BnCompileDecisionsPerRun();
  entries.push_back(compile_bn);
  const double query_edges = QueryEdgesPerRun();
  entries.push_back(Measure("nnf_wmc", BenchNnfWmc, query_edges));
  entries.push_back(Measure("nnf_marginals", BenchNnfMarginals, query_edges));
  entries.push_back(Measure("nnf_mpe", BenchNnfMpe, query_edges));
  entries.push_back(Measure("certify_fig8_plain", BenchCertifyFig8Plain));
  entries.push_back(Measure("certify_fig8_traced", BenchCertifyFig8Traced));
  entries.push_back(Measure("psdd_eval", BenchPsddEval));
  entries.push_back(Measure("hierarchical_map", BenchHierarchicalMap));
  entries.push_back(Measure("sdd_apply_wmc", BenchSddApply));
  entries.push_back(Measure("sdd_minimize", BenchSddMinimize));
  entries.push_back(Measure("sdd_compile_autominimize", BenchSddCompileAutoMinimize));
  entries.push_back(Measure("obdd_apply_count", BenchObddApply));
  Entry codec = Measure("serve_codec", BenchServeCodec);
  codec.lines_per_run = ServeCodecMessages().lines * kCodecReps;
  entries.push_back(codec);

  std::FILE* out = stdout;
  if (argc > 1) {
    out = std::fopen(argv[1], "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
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
