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
//          [--stats[=json]]
//
// --save-circuit persists the compiled Decision-DNNF (with the source CNF
// and exact model count) in the memory-mapped `.tbc` store format;
// --load-circuit mmaps such a store and answers queries with no compile
// and no deserialization pass (DESIGN.md "Persistent circuit store").
// Loaded queries are bit-identical to the saving process's: `c wmc_hex:`
// prints the WMC as a locale-independent hexfloat for exact cross-process
// comparison.
//
// With --timeout-ms/--max-nodes the compilation runs under a resource
// guard; if the budget is exhausted the tool prints the typed refusal and
// exits with code 3 (distinct from usage errors and bad input). The budget
// bounds each search on its own: the counter run of --wmc gets a fresh
// guard with the same budget, so it never pays for the compile before it.
//
// Exit codes (unified across kc_cli / tbc_lint / tbc_certify, see the
// README table): 0 = ok, 1 = usage or input/IO error, 2 = input rejected
// (unparseable CNF, including an empty file, or a circuit store that
// failed validation: corrupt, truncated, or foreign bytes), 3 = typed
// resource refusal, 4 = certificate rejected by the checker.
//
// --wmc runs an exact weighted model count after compilation (every
// literal weighted W, default 1.0) and reports the log-space rescue
// counter. --stats dumps the observability registry (counters, peak-memory
// gauges, timing histograms, trace spans) as text; --stats=json emits the
// machine-readable schema pinned by tools/stats_schema.json.
//
// --certify verifies the compilation in-process through the independent
// certificate checker (src/certify/) and exits 4 if the certificate is
// rejected; --certify-out=OUT additionally writes the certificate text for
// offline checking with tbc_certify. d-DNNF and OBDD certificates carry
// the compiler's derivation trace, which the checker replays.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "analysis/structure/forecast.h"
#include "base/guard.h"
#include "base/observability.h"
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

namespace {

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  tbc::cli::IgnoreSigpipe();
  using namespace tbc;
  // argv[1] is the input (a CNF path or --load-circuit=), never an option.
  auto arg = [&](const char* name) { return cli::Arg(argc, argv, name, 2); };
  auto flag = [&](const char* name) { return cli::Flag(argc, argv, name, 2); };
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

  // Shared by compile and load modes: uniform literal weight for --wmc.
  auto parse_wmc_weight = [&](double* lit_weight) -> bool {
    *lit_weight = 1.0;
    if (const char* ws = arg("--wmc")) {
      if (!ParseDouble(ws, lit_weight)) {
        std::fprintf(stderr, "kc_cli: --wmc needs a number, got '%s'\n", ws);
        return false;
      }
    }
    return true;
  };
  auto dump_stats = [&]() -> int {
    if (const char* mode = arg("--stats")) {
      if (std::strcmp(mode, "json") != 0) {
        std::fprintf(stderr, "kc_cli: unknown stats mode '%s'\n", mode);
        return 1;
      }
      std::fputs(Observability::Global().RenderJson().c_str(), stdout);
    } else if (flag("--stats")) {
      std::fputs(Observability::Global().RenderText().c_str(), stdout);
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
    const size_t num_vars = mgr.num_vars();
    std::printf("c loaded circuit store %s in %.2f ms (mmap, zero-copy)\n",
                store_path, load_timer.Millis());
    std::printf("c circuit: %zu edges, %zu nodes, %zu vars\n",
                mgr.CircuitSize(root), mgr.NumNodesBelow(root), num_vars);
    if (!loaded->store->cnf_text().empty()) {
      std::printf("c embedded cnf: %zu bytes\n",
                  loaded->store->cnf_text().size());
    }
    std::printf("s %s\n",
                IsSatDnnf(mgr, root) ? "SATISFIABLE" : "UNSATISFIABLE");
    const BigUint models = loaded->store->has_model_count()
                               ? loaded->store->model_count()
                               : ModelCount(mgr, root, num_vars);
    std::printf("c models: %s\n", models.ToString().c_str());
    if (flag("--wmc") || arg("--wmc") != nullptr) {
      double lit_weight = 1.0;
      if (!parse_wmc_weight(&lit_weight)) return 1;
      WeightMap weights(num_vars);
      for (Var v = 0; v < num_vars; ++v) {
        weights.Set(Pos(v), lit_weight);
        weights.Set(Neg(v), lit_weight);
      }
      const double wmc = Wmc(mgr, root, weights);
      std::printf("c wmc: %.12g\n", wmc);
      std::printf("c wmc_hex: %s\n", FormatDoubleHex(wmc).c_str());
    }
    const char* samples_arg = arg("--samples");
    const size_t samples =
        samples_arg != nullptr ? std::strtoull(samples_arg, nullptr, 10) : 0;
    Rng rng(2026);
    for (size_t i = 0; i < samples && IsSatDnnf(mgr, root); ++i) {
      const Assignment x = SampleModelDnnf(mgr, root, num_vars, rng);
      std::printf("v");
      for (Var v = 0; v < num_vars; ++v) {
        std::printf(" %d", Lit(v, x[v]).ToDimacs());
      }
      std::printf(" 0\n");
    }
    return dump_stats();
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
  std::printf("c input: %zu vars, %zu clauses\n", cnf.num_vars(),
              cnf.num_clauses());

  const char* target_arg = arg("--target");
  const std::string target = target_arg != nullptr ? target_arg : "ddnnf";
  if (arg("--save-circuit") != nullptr && target != "ddnnf") {
    std::fprintf(stderr,
                 "kc_cli: --save-circuit is only supported for "
                 "--target=ddnnf\n");
    return 1;
  }
  const char* samples_arg = arg("--samples");
  const size_t samples = samples_arg != nullptr ? std::strtoull(samples_arg, nullptr, 10) : 0;

  std::vector<Var> order = flag("--force-order")
                               ? ForceOrder(cnf, 20)
                               : Vtree::IdentityOrder(cnf.num_vars());

  Budget budget;
  if (const char* t = arg("--timeout-ms")) {
    if (!ParseDouble(t, &budget.timeout_ms) || budget.timeout_ms < 0.0) {
      std::fprintf(stderr, "kc_cli: --timeout-ms needs a number, got '%s'\n", t);
      return 1;
    }
  }
  if (const char* n = arg("--max-nodes")) {
    if (!ParseUint64(n, &budget.max_nodes)) {
      std::fprintf(stderr, "kc_cli: --max-nodes needs an integer, got '%s'\n", n);
      return 1;
    }
  }
  // Size-triggered in-place SDD minimization: set the process-wide default
  // so every manager the run creates (direct compiles, portfolio arms)
  // picks the policy up at construction.
  if (const char* m = arg("--sdd-minimize")) {
    SddMinimizeMode mode;
    if (std::strcmp(m, "off") == 0) {
      mode = SddMinimizeMode::kOff;
    } else if (std::strcmp(m, "auto") == 0) {
      mode = SddMinimizeMode::kAuto;
    } else if (std::strcmp(m, "aggressive") == 0) {
      mode = SddMinimizeMode::kAggressive;
    } else {
      std::fprintf(stderr,
                   "kc_cli: --sdd-minimize must be off|auto|aggressive, "
                   "got '%s'\n",
                   m);
      return 1;
    }
    SddAutoMinimizeOptions opts = SddAutoMinimizeOptions::ForMode(mode);
    if (const char* t = arg("--sdd-minimize-threshold")) {
      if (!ParseDouble(t, &opts.growth_ratio) || opts.growth_ratio < 1.0) {
        std::fprintf(stderr,
                     "kc_cli: --sdd-minimize-threshold needs a ratio >= 1, "
                     "got '%s'\n",
                     t);
        return 1;
      }
    }
    SddManager::SetDefaultAutoMinimize(opts);
  } else if (arg("--sdd-minimize-threshold") != nullptr) {
    std::fprintf(stderr,
                 "kc_cli: --sdd-minimize-threshold requires --sdd-minimize\n");
    return 1;
  }

  const bool governed = budget.timeout_ms > 0.0 || budget.max_nodes > 0;
  Guard guard(budget);
  // Typed refusal (deadline/budget): report and exit 3 so scripts can tell
  // "ran out of resources" from "bad input / bad usage" (1).
  auto refuse = [](const Status& s) -> int {
    std::fprintf(stderr, "kc_cli: refused [%s]: %s\n", StatusCodeName(s.code()),
                 s.message().c_str());
    return 3;
  };

  const char* certify_out = arg("--certify-out");
  const bool certifying =
      flag("--certify") || certify_out != nullptr;
  // Writes and/or checks a freshly built certificate; returns 0, or 4 when
  // the checker rejects it (distinct from usage/input/refusal codes).
  auto finish_cert = [&](const Certificate& cert) -> int {
    const std::string cert_text = WriteCertificate(cert);
    if (certify_out != nullptr) {
      WriteFile(certify_out, cert_text);
      std::printf("c wrote certificate %s\n", certify_out);
    }
    if (flag("--certify")) {
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
    NnfId root = kInvalidNnf;
    if (governed) {
      auto compiled = compiler.CompileBounded(cnf, mgr, guard);
      if (!compiled.ok()) return refuse(compiled.status());
      root = *compiled;
    } else {
      root = compiler.Compile(cnf, mgr);
    }
    std::printf("c compiled Decision-DNNF: %zu edges, %zu nodes in %.2f ms\n",
                mgr.CircuitSize(root), mgr.NumNodesBelow(root), timer.Millis());
    std::printf("c decisions: %llu, cache hits: %llu\n",
                static_cast<unsigned long long>(compiler.stats().decisions),
                static_cast<unsigned long long>(compiler.stats().cache_hits));
    std::printf("s %s\n", IsSatDnnf(mgr, root) ? "SATISFIABLE" : "UNSATISFIABLE");
    std::printf("c models: %s\n",
                ModelCount(mgr, root, cnf.num_vars()).ToString().c_str());
    if (certifying) {
      const int rc = finish_cert(BuildDdnnfCertificate(
          cnf, mgr, root, &trace, ModelCount(mgr, root, cnf.num_vars())));
      if (rc != 0) return rc;
    }
    if (const char* out = arg("--write-nnf")) {
      WriteFile(out, WriteNnf(mgr, root, cnf.num_vars()));
      std::printf("c wrote %s\n", out);
    }
    if (const char* out = arg("--save-circuit")) {
      const BigUint count = ModelCount(mgr, root, cnf.num_vars());
      StoreWriteOptions wopts;
      wopts.cnf_text = text;
      wopts.model_count = &count;
      wopts.num_vars = cnf.num_vars();
      const Status st = WriteCircuitStore(mgr, root, out, wopts);
      if (!st.ok()) {
        std::fprintf(stderr, "kc_cli: %s\n", st.message().c_str());
        return 1;
      }
      std::printf("c wrote circuit store %s\n", out);
    }
    if (flag("--wmc") || arg("--wmc") != nullptr) {
      // Circuit-evaluated WMC in exact hexfloat: the cross-process anchor
      // a --load-circuit run of the saved store reproduces bit-identically
      // (the store's id compaction preserves evaluation order).
      double lit_weight = 1.0;
      if (!parse_wmc_weight(&lit_weight)) return 1;
      WeightMap weights(cnf.num_vars());
      for (Var v = 0; v < cnf.num_vars(); ++v) {
        weights.Set(Pos(v), lit_weight);
        weights.Set(Neg(v), lit_weight);
      }
      std::printf("c wmc_hex: %s\n",
                  FormatDoubleHex(Wmc(mgr, root, weights)).c_str());
    }
    Rng rng(2026);
    for (size_t i = 0; i < samples && IsSatDnnf(mgr, root); ++i) {
      const Assignment x = SampleModelDnnf(mgr, root, cnf.num_vars(), rng);
      std::printf("v");
      for (Var v = 0; v < cnf.num_vars(); ++v) {
        std::printf(" %d", Lit(v, x[v]).ToDimacs());
      }
      std::printf(" 0\n");
    }
  } else if (target == "sdd") {
    const char* shape_arg = arg("--vtree");
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
    if (const char* iters = arg("--minimize")) {
      // Vtree search by in-place edits on the live SDD.
      const size_t iter_budget = std::strtoull(iters, nullptr, 10);
      const MinimizeResult r = MinimizeVtree(cnf, vt, iter_budget, 7, guard);
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
    SddId f = kInvalidSdd;
    if (governed) {
      auto compiled = CompileCnfBounded(mgr, cnf, guard);
      if (!compiled.ok()) return refuse(compiled.status());
      f = *compiled;
    } else {
      f = CompileCnf(mgr, cnf);
    }
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
          cnf, mgr, f, ModelCount(scratch, nroot, cnf.num_vars())));
      if (rc != 0) return rc;
    }
    if (const char* out = arg("--write-sdd")) {
      WriteFile(out, WriteSdd(mgr, f));
      std::printf("c wrote %s\n", out);
    }
    if (const char* out = arg("--write-vtree")) {
      WriteFile(out, mgr.vtree().ToFileString());
      std::printf("c wrote %s\n", out);
    }
  } else if (target == "obdd") {
    if (governed) {
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
      const BigUint claimed = ModelCount(scratch, nroot, cnf.num_vars());
      const int rc =
          finish_cert(BuildObddCertificate(cnf, std::move(obdd_trace), claimed));
      if (rc != 0) return rc;
    }
    if (const char* out = arg("--write-nnf")) {
      NnfManager nnf;
      WriteFile(out, WriteNnf(nnf, mgr.ToNnf(f, nnf), cnf.num_vars()));
      std::printf("c wrote %s\n", out);
    }
  } else {
    std::fprintf(stderr, "kc_cli: unknown target %s\n", target.c_str());
    return 1;
  }

  if (flag("--wmc") || arg("--wmc") != nullptr) {
    double lit_weight = 1.0;
    if (!parse_wmc_weight(&lit_weight)) return 1;
    WeightMap weights(cnf.num_vars());
    for (Var v = 0; v < cnf.num_vars(); ++v) {
      weights.Set(Pos(v), lit_weight);
      weights.Set(Neg(v), lit_weight);
    }
    ModelCounter counter;
    Guard wmc_guard(budget);
    auto wmc = counter.WmcBounded(cnf, weights, wmc_guard);
    if (!wmc.ok()) return refuse(wmc.status());
    std::printf("c wmc: %.12g (decisions %llu, cache hits %llu, "
                "underflow rescues %llu)\n",
                *wmc,
                static_cast<unsigned long long>(counter.stats().decisions),
                static_cast<unsigned long long>(counter.stats().cache_hits),
                static_cast<unsigned long long>(
                    counter.stats().underflow_rescues));
  }

  // Stats last, so the dump covers everything the invocation did.
  return dump_stats();
}
