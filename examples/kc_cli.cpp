// kc_cli: a miniature knowledge compiler in the spirit of c2d / the SDD
// library's command-line tools. Reads a DIMACS CNF, compiles it to the
// requested tractable language, reports statistics and counts, and can
// write circuit/vtree files and draw uniform samples.
//
// Usage:
//   kc_cli FILE.cnf [--target=ddnnf|sdd|obdd]
//          [--vtree=balanced|right|random|minfill]
//          [--force-order] [--minimize=N] [--samples=N]
//          [--timeout-ms=N] [--max-nodes=N]
//          [--write-nnf=OUT] [--write-sdd=OUT] [--write-vtree=OUT]
//          [--save-circuit=OUT.tbc]
//          [--wmc[=W]] [--stats[=json]]
//   kc_cli --load-circuit=STORE.tbc [--wmc[=W]] [--samples=N]
//          [--timeout-ms=N] [--max-nodes=N] [--stats[=json]]
//
// --save-circuit persists the compiled Decision-DNNF (with the source CNF
// and exact model count) in the memory-mapped `.tbc` store format;
// --load-circuit mmaps such a store and answers queries with no compile
// and no deserialization pass (DESIGN.md "Persistent circuit store").
// Loaded queries are bit-identical to the saving process's: `c wmc_hex:`
// prints the WMC as a locale-independent hexfloat for exact cross-process
// comparison.
//
// With --timeout-ms/--max-nodes the compilation, and the queries on a
// compiled or loaded circuit, run under a resource guard; if the budget is
// exhausted the tool prints the typed refusal and exits with code 3
// (distinct from usage errors and bad input). The budget bounds each
// search on its own: the compile, the circuit queries (SAT, count, --wmc,
// --samples) and the counter run of --wmc each get a fresh guard with the
// same budget, so none pays for the one before it. (The OBDD compiler
// takes no guard yet and says so.)
//
// Exit codes (unified across the tbc tools, see the README table): 0 = ok,
// 1 = usage or input/IO error (a malformed numeric flag and a failed
// output write included), 2 = input rejected (unparseable CNF, including
// an empty file, or a circuit store that failed validation: corrupt,
// truncated, or foreign bytes), 3 = typed resource refusal,
// 4 = certificate rejected by the checker.
//
// --wmc answers an exact weighted model count (every literal weighted W,
// default 1.0): a d-DNNF, compiled or loaded, prints its circuit WMC as
// `c wmc_hex:`, and a compile additionally runs the DPLL counter, which
// prints `c wmc:` and the log-space rescue counter. --stats dumps the
// observability registry (counters, peak-memory gauges, timing histograms,
// trace spans) as text; --stats=json emits the machine-readable schema
// pinned by tools/stats_schema.json.
//
// --certify verifies the compilation in-process through the independent
// certificate checker (src/certify/) and exits 4 if the certificate is
// rejected; --certify-out=OUT additionally writes the certificate text for
// offline checking with tbc_certify. d-DNNF and OBDD certificates carry
// the compiler's derivation trace, which the checker replays.

#include <cstdio>
#include <cstring>
#include <string>

#include "analysis/structure/forecast.h"
#include "base/guard.h"
#include "base/strings.h"
#include "base/timer.h"
#include "certify/certificate.h"
#include "certify/checker.h"
#include "certify/emit.h"
#include "cli.h"
#include "compiler/ddnnf_compiler.h"
#include "compiler/model_counter.h"
#include "nnf/io.h"
#include "nnf/queries.h"
#include "obdd/obdd.h"
#include "obdd/ordering.h"
#include "sdd/compile.h"
#include "sdd/io.h"
#include "sdd/minimize.h"
#include "sdd/sdd.h"
#include "store/store.h"
#include "vtree/vtree.h"

int main(int argc, char** argv) {
  tbc::cli::IgnoreSigpipe();
  using namespace tbc;
  if (argc < 2) {
    std::printf(
        "usage: kc_cli FILE.cnf [--target=ddnnf|sdd|obdd]\n"
        "       kc_cli --load-circuit=STORE.tbc [--wmc[=W]] [--samples=N]\n"
        "              [--vtree=balanced|right|random|minfill] [--force-order]\n"
        "              [--minimize=N]\n"
        "              [--sdd-minimize=off|auto|aggressive]\n"
        "              [--sdd-minimize-threshold=R] [--samples=N]\n"
        "              [--timeout-ms=N] [--max-nodes=N]\n"
        "              [--write-nnf=OUT] [--write-sdd=OUT] [--write-vtree=OUT]\n"
        "              [--save-circuit=OUT.tbc] [--wmc[=W]] [--stats[=json]]\n"
        "              [--certify] [--certify-out=OUT]\n");
    return 1;
  }
  // argv[1] is the input (a CNF path or --load-circuit=), never an option.
  // Every flag is read here, once, for both modes, before any work.
  const cli::Args args("kc_cli", argc, argv, 2);
  Budget budget;
  size_t samples = 0;
  size_t minimize_iters = 0;
  double lit_weight = 1.0;
  if (!args.Read("--timeout-ms", &budget.timeout_ms, 0.0) ||
      !args.Read("--max-nodes", &budget.max_nodes) ||
      !args.Read("--samples", &samples) ||
      !args.Read("--minimize", &minimize_iters) ||
      !args.Read("--wmc", &lit_weight) || !cli::CheckStats(args)) {
    return 1;
  }
  const bool wmc = args.Has("--wmc") || args.Get("--wmc") != nullptr;
  const char* target_arg = args.Get("--target");
  const std::string target = target_arg != nullptr ? target_arg : "ddnnf";
  if (target != "ddnnf" && target != "sdd" && target != "obdd") {
    std::fprintf(stderr, "kc_cli: unknown target %s\n", target.c_str());
    return 1;
  }
  if (args.Get("--save-circuit") != nullptr && target != "ddnnf") {
    std::fprintf(stderr,
                 "kc_cli: --save-circuit is only supported for "
                 "--target=ddnnf\n");
    return 1;
  }
  // Size-triggered in-place SDD minimization: set the process-wide default
  // so every manager the run creates (direct compiles, portfolio arms)
  // picks the policy up at construction.
  if (const char* m = args.Get("--sdd-minimize")) {
    const char* const modes[] = {"off", "auto", "aggressive"};  // enum order
    int mode = 0;
    while (mode < 3 && std::strcmp(m, modes[mode]) != 0) ++mode;
    if (mode == 3) {
      std::fprintf(stderr,
                   "kc_cli: --sdd-minimize must be off|auto|aggressive, "
                   "got '%s'\n",
                   m);
      return 1;
    }
    SddAutoMinimizeOptions opts =
        SddAutoMinimizeOptions::ForMode(static_cast<SddMinimizeMode>(mode));
    if (!args.Read("--sdd-minimize-threshold", &opts.growth_ratio, 1.0)) {
      return 1;
    }
    SddManager::SetDefaultAutoMinimize(opts);
  } else if (args.Get("--sdd-minimize-threshold") != nullptr) {
    std::fprintf(stderr,
                 "kc_cli: --sdd-minimize-threshold requires --sdd-minimize\n");
    return 1;
  }

  // Typed refusal (deadline/budget): report and exit 3 so scripts can tell
  // "ran out of resources" from "bad input / bad usage" (1).
  auto refuse = [](const Status& s) -> int {
    std::fprintf(stderr, "kc_cli: refused [%s]: %s\n", StatusCodeName(s.code()),
                 s.message().c_str());
    return 3;
  };
  auto uniform_weights = [&](size_t num_vars) {
    WeightMap weights(num_vars);
    for (Var v = 0; v < num_vars; ++v) {
      weights.Set(Pos(v), lit_weight);
      weights.Set(Neg(v), lit_weight);
    }
    return weights;
  };
  // Writes an output file and reports it; false (exit 1) when it fails.
  auto write = [&](const char* what, const char* path,
                   const std::string& content) {
    if (!cli::WriteFile(args, path, content)) return false;
    std::printf("c wrote %s%s\n", what, path);
    return true;
  };

  // The queries a d-DNNF answers, compiled or loaded: SAT, the model count
  // (`known` when the store carries it), --wmc and --samples, on a fresh
  // guard. Sets *models; returns 0 or the refusal's exit code.
  auto answer = [&](NnfManager& mgr, NnfId root, size_t num_vars,
                    const BigUint* known, BigUint* models) -> int {
    Guard guard(budget);
    const bool sat = IsSatDnnf(mgr, root);
    std::printf("s %s\n", sat ? "SATISFIABLE" : "UNSATISFIABLE");
    if (known != nullptr) {
      *models = *known;
    } else {
      auto count = ModelCountBounded(mgr, root, num_vars, guard);
      if (!count.ok()) return refuse(count.status());
      *models = *std::move(count);
    }
    std::printf("c models: %s\n", models->ToString().c_str());
    if (wmc) {
      // Circuit-evaluated WMC in exact hexfloat: the cross-process anchor
      // a --load-circuit run of the saved store reproduces bit-identically
      // (the store's id compaction preserves evaluation order).
      auto w = WmcBounded(mgr, root, uniform_weights(num_vars), guard);
      if (!w.ok()) return refuse(w.status());
      std::printf("c wmc_hex: %s\n", FormatDoubleHex(*w).c_str());
    }
    Rng rng(2026);
    for (size_t i = 0; i < samples && sat; ++i) {
      if (Status s = guard.Check(); !s.ok()) return refuse(s);
      const Assignment x = SampleModelDnnf(mgr, root, num_vars, rng);
      std::printf("v");
      for (Var v = 0; v < num_vars; ++v) {
        std::printf(" %d", Lit(v, x[v]).ToDimacs());
      }
      std::printf(" 0\n");
    }
    return 0;
  };

  // Load mode: serve queries straight off a mapped circuit store — no CNF
  // parse, no compile, O(pages touched) load.
  if (std::strncmp(argv[1], "--load-circuit=", 15) == 0) {
    const char* store_path = argv[1] + 15;
    Timer load_timer;
    auto loaded = LoadCircuitStore(store_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "kc_cli: %s\n", loaded.status().message().c_str());
      // 2 = store failed validation (corrupt/truncated/foreign bytes);
      // 1 = could not read the file at all.
      return loaded.error_code() == StatusCode::kInvalidInput ? 2 : 1;
    }
    NnfManager& mgr = *loaded->mgr;
    const NnfId root = loaded->root;
    const MappedStore& store = *loaded->store;
    std::printf("c loaded circuit store %s in %.2f ms (mmap, zero-copy)\n",
                store_path, load_timer.Millis());
    std::printf("c circuit: %zu edges, %zu nodes, %zu vars\n",
                mgr.CircuitSize(root), mgr.NumNodesBelow(root),
                mgr.num_vars());
    if (!store.cnf_text().empty()) {
      std::printf("c embedded cnf: %zu bytes\n", store.cnf_text().size());
    }
    BigUint models;
    const int rc =
        answer(mgr, root, mgr.num_vars(),
               store.has_model_count() ? &store.model_count() : nullptr,
               &models);
    if (rc != 0) return rc;
    cli::DumpStats(args, stdout);
    return 0;
  }

  std::string text;
  if (!cli::ReadFile(argv[1], &text)) {
    std::fprintf(stderr, "kc_cli: cannot read %s\n", argv[1]);
    return 1;
  }
  auto parsed = Cnf::ParseDimacs(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "kc_cli: %s\n", parsed.status().message().c_str());
    return 2;
  }
  const Cnf cnf = std::move(parsed).value();
  const size_t num_vars = cnf.num_vars();
  std::printf("c input: %zu vars, %zu clauses\n", num_vars, cnf.num_clauses());

  std::vector<Var> order = args.Has("--force-order")
                               ? ForceOrder(cnf, 20)
                               : Vtree::IdentityOrder(num_vars);
  Guard guard(budget);

  const char* certify_out = args.Get("--certify-out");
  const bool certifying = args.Has("--certify") || certify_out != nullptr;
  // Writes and/or checks a freshly built certificate; returns 0, 1 when
  // the write fails, or 4 when the checker rejects it (distinct from
  // usage/input/refusal codes).
  auto finish_cert = [&](const Certificate& cert) -> int {
    const std::string cert_text = WriteCertificate(cert);
    if (certify_out != nullptr &&
        !write("certificate ", certify_out, cert_text)) {
      return 1;
    }
    if (args.Has("--certify")) {
      // Check what would be written, not the in-memory struct: the text
      // round-trip is part of what is being verified.
      auto reparsed = ParseCertificate(cert_text);
      if (!reparsed.ok()) {
        std::fprintf(stderr, "kc_cli: certificate does not reparse: %s\n",
                     reparsed.status().message().c_str());
        return 4;
      }
      const CertifyResult result = CheckCertificate(*reparsed);
      if (!result.ok()) {
        std::fputs(result.report.ToText("certificate").c_str(), stderr);
        return 4;
      }
      std::printf("c certificate: verified (%s, %s models)\n",
                  CertificateKindName(cert.kind),
                  result.certified_count.ToString().c_str());
    }
    return 0;
  };

  Timer timer;
  if (target == "ddnnf") {
    NnfManager mgr;
    DdnnfCompiler compiler;
    DdnnfTrace trace;
    if (certifying) compiler.set_trace(&trace);
    auto compiled = compiler.CompileBounded(cnf, mgr, guard);
    if (!compiled.ok()) return refuse(compiled.status());
    const NnfId root = *compiled;
    std::printf("c compiled Decision-DNNF: %zu edges, %zu nodes in %.2f ms\n",
                mgr.CircuitSize(root), mgr.NumNodesBelow(root), timer.Millis());
    std::printf("c decisions: %llu, cache hits: %llu\n",
                static_cast<unsigned long long>(compiler.stats().decisions),
                static_cast<unsigned long long>(compiler.stats().cache_hits));
    BigUint models;
    if (int rc = answer(mgr, root, num_vars, nullptr, &models); rc != 0) {
      return rc;
    }
    if (certifying) {
      const int rc =
          finish_cert(BuildDdnnfCertificate(cnf, mgr, root, &trace, models));
      if (rc != 0) return rc;
    }
    if (const char* out = args.Get("--write-nnf");
        out != nullptr && !write("", out, WriteNnf(mgr, root, num_vars))) {
      return 1;
    }
    if (const char* out = args.Get("--save-circuit")) {
      StoreWriteOptions wopts;
      wopts.cnf_text = text;
      wopts.model_count = &models;
      wopts.num_vars = num_vars;
      const Status st = WriteCircuitStore(mgr, root, out, wopts);
      if (!st.ok()) {
        std::fprintf(stderr, "kc_cli: %s\n", st.message().c_str());
        return 1;
      }
      std::printf("c wrote circuit store %s\n", out);
    }
  } else if (target == "sdd") {
    const char* shape_arg = args.Get("--vtree");
    const std::string shape = shape_arg != nullptr ? shape_arg : "balanced";
    Rng rng(1);
    Vtree vt;
    if (shape == "minfill") {
      // Structure-driven vtree: run the static analysis pass and decompose
      // along the best elimination order found (min-fill on CNFs this
      // size). The compile cost then tracks the reported width instead of
      // the variable numbering.
      const StructureReport report = AnalyzeCnfStructure(cnf);
      std::printf("c structure: width <= %u (%s), lower bound %u\n",
                  report.best_width(),
                  report.candidates.empty()
                      ? "none"
                      : ElimHeuristicName(report.best_candidate().heuristic),
                  report.width_lower_bound);
      vt = report.candidates.empty() ? Vtree::Balanced(order)
                                     : VtreeForCnf(report);
    } else {
      vt = shape == "right"    ? Vtree::RightLinear(order)
           : shape == "random" ? Vtree::Random(order, rng)
                               : Vtree::Balanced(order);
    }
    if (args.Get("--minimize") != nullptr) {
      // Vtree search by in-place edits on the live SDD.
      const MinimizeResult r = MinimizeVtree(cnf, vt, minimize_iters, 7, guard);
      if (r.interrupted && r.size == 0) return refuse(r.interrupt_status);
      if (r.interrupted) {
        std::printf("c vtree search stopped early [%s]\n",
                    StatusCodeName(r.interrupt_status.code()));
      }
      std::printf(
          "c vtree search (in-place): size %zu -> %zu in %zu iterations\n",
          r.initial_size, r.size, r.iterations);
      vt = r.vtree;
    }
    SddManager mgr(vt);
    auto compiled = CompileCnfBounded(mgr, cnf, guard);
    if (!compiled.ok()) return refuse(compiled.status());
    const SddId f = *compiled;
    if (mgr.auto_minimize_fires() > 0) {
      std::printf("c auto-minimize: fired %zu times (%zu nodes live)\n",
                  mgr.auto_minimize_fires(), mgr.live_node_count());
    }
    std::printf("c compiled SDD: %zu elements, %zu decision nodes in %.2f ms\n",
                mgr.Size(f), mgr.NumDecisionNodes(f), timer.Millis());
    std::printf("s %s\n", f != mgr.False() ? "SATISFIABLE" : "UNSATISFIABLE");
    std::printf("c models: %s\n", mgr.ModelCount(f).ToString().c_str());
    if (certifying) {
      NnfManager scratch;
      const NnfId nroot = mgr.ToNnf(f, scratch);
      const int rc = finish_cert(BuildSddCertificate(
          cnf, mgr, f, ModelCount(scratch, nroot, num_vars)));
      if (rc != 0) return rc;
    }
    if (const char* out = args.Get("--write-sdd");
        out != nullptr && !write("", out, WriteSdd(mgr, f))) {
      return 1;
    }
    if (const char* out = args.Get("--write-vtree");
        out != nullptr && !write("", out, mgr.vtree().ToFileString())) {
      return 1;
    }
  } else {
    if (budget.timeout_ms > 0.0 || budget.max_nodes > 0) {
      std::printf("c warning: --timeout-ms/--max-nodes are not yet wired "
                  "into the OBDD compiler; running unbounded\n");
    }
    ObddManager mgr(order);
    ObddTrace obdd_trace;
    const ObddId f = certifying ? mgr.CompileCnfTraced(cnf, &obdd_trace)
                                : mgr.CompileCnf(cnf);
    std::printf("c compiled OBDD: %zu nodes in %.2f ms\n", mgr.Size(f),
                timer.Millis());
    std::printf("s %s\n", f != mgr.False() ? "SATISFIABLE" : "UNSATISFIABLE");
    std::printf("c models: %s\n", mgr.ModelCount(f).ToString().c_str());
    if (certifying) {
      NnfManager scratch;
      const NnfId nroot = mgr.ToNnf(f, scratch);
      const BigUint claimed = ModelCount(scratch, nroot, num_vars);
      const int rc = finish_cert(
          BuildObddCertificate(cnf, std::move(obdd_trace), claimed));
      if (rc != 0) return rc;
    }
    if (const char* out = args.Get("--write-nnf")) {
      NnfManager nnf;
      if (!write("", out, WriteNnf(nnf, mgr.ToNnf(f, nnf), num_vars))) return 1;
    }
  }

  if (wmc) {
    ModelCounter counter;
    Guard wmc_guard(budget);
    auto w = counter.WmcBounded(cnf, uniform_weights(num_vars), wmc_guard);
    if (!w.ok()) return refuse(w.status());
    std::printf("c wmc: %.12g (decisions %llu, cache hits %llu, "
                "underflow rescues %llu)\n",
                *w,
                static_cast<unsigned long long>(counter.stats().decisions),
                static_cast<unsigned long long>(counter.stats().cache_hits),
                static_cast<unsigned long long>(
                    counter.stats().underflow_rescues));
  }

  // Stats last, so the dump covers everything the invocation did.
  cli::DumpStats(args, stdout);
  return 0;
}
