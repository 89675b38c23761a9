// tbc_analyze: static structure analysis of DIMACS CNF files — the
// "analyze before you compile" tool (DESIGN.md "Structure analysis & cost
// forecasting"). Without running any compiler it reports, per file: primal
// graph shape, connected components, unit/pure/backbone propagation facts,
// a treewidth bracket (degeneracy lower bound, simulated elimination-order
// upper bounds from min-degree / MCS / min-fill), the dtree width along
// the best order, and the per-backend compile-cost envelope implied by the
// width (nodes <= n·2^w; paper §4).
//
// With --max-width=N the tool doubles as an offline admission check: a
// file whose best predicted width exceeds N exits 3 (the same typed
// refusal tbc_serve issues online with --max-width). The forecast is
// advisory — it routes and refuses, but resource Guards remain the
// enforcer of record on anything actually compiled.
//
// Usage:
//   tbc_analyze [options] FILE.cnf...
//     --format=text|json   rendering (default text; json is one array with
//                          one object per file)
//     --max-width=N        exit 3 when a file's predicted width exceeds N
//     --no-minfill         skip the min-fill order (the quadratic-ish one)
//     --minfill-max-vars=N min-fill size cutoff (default 4096)
//     --list-rules         print the structure.* rule ids and exit
//     --stats[=json]       dump the observability registry to stderr
//
// Exit codes: 0 = analyzed clean, 1 = usage error (a malformed numeric
// flag included) or at least one file is unreadable (rule structure.io),
// 2 = at least one file is not parseable CNF (rule structure.parse; an
// empty-but-readable file lands here), 3 = at least one file exceeds
// --max-width. Severity wins across files: 1 over 2 over 3. Every listed
// file is analyzed and reported even when an earlier one fails, so
// --format=json always emits a complete array.

#include <string>

#include "analysis/diagnostics.h"
#include "analysis/rules.h"
#include "analysis/structure/forecast.h"
#include "base/observability.h"
#include "base/strings.h"
#include "cli.h"

int main(int argc, char** argv) {
  tbc::cli::IgnoreSigpipe();
  using namespace tbc;
  const cli::Args args("tbc_analyze", argc, argv);
  uint64_t max_width = 0;
  StructureOptions options;
  options.try_minfill = !args.Has("--no-minfill");
  if (!args.Read("--max-width", &max_width) ||
      !args.Read("--minfill-max-vars", &options.minfill_max_vars) ||
      !cli::CheckStats(args)) {
    return 1;
  }
  const char* usage =
      "usage: tbc_analyze [options] FILE.cnf...\n"
      "  --format=text|json\n"
      "  --max-width=N        exit 3 when predicted width exceeds N\n"
      "  --no-minfill         skip the min-fill elimination order\n"
      "  --minfill-max-vars=N min-fill size cutoff (default 4096)\n"
      "  --list-rules         print the structure.* rule ids and exit\n"
      "  --stats[=json]       dump observability metrics to stderr\n"
      "exit: 0 clean, 1 usage/io error, 2 unparseable CNF, 3 over width "
      "cap\n";
  return cli::RunReportTool(
      args, usage, "structure.", rules::kStructureIo,
      [&](const char* path, const std::string* text, cli::FileReport& r) {
        std::string structure_json = "null";
        bool refused = false;
        if (text == nullptr) {
          // Unreadable: the driver reported structure.io.
        } else if (auto parsed = Cnf::ParseDimacs(*text); !parsed.ok()) {
          // Includes the genuinely-empty-file case: readable, no header.
          r.exit = 2;
          r.diagnostics.Add(Severity::kError, rules::kStructureParse, 0, "",
                            parsed.status().message());
        } else {
          const StructureReport report = AnalyzeCnfStructure(*parsed, options);
          StructureDiagnostics(report, r.diagnostics);
          structure_json = report.ToJson();
          r.text = std::string(path) + ":\n" + report.ToText();
          r.clean_line = std::string(path) + ": clean\n";
          if (max_width > 0 && report.best_width() > max_width) {
            r.exit = 3;
            refused = true;
            TBC_COUNT("analysis.structure.forecast_refusals");
            r.diagnostics.Add(
                Severity::kError, rules::kStructureWidth, 0,
                "width=" + std::to_string(report.best_width()) +
                    " cap=" + std::to_string(max_width),
                "predicted induced width exceeds the --max-width cap; a "
                "compile is forecast to be hopeless within reasonable "
                "budgets");
          }
        }
        r.json = "{\"file\":\"" + JsonEscape(path) + "\"" +
                 ",\"refused\":" + (refused ? "true" : "false") +
                 ",\"structure\":" + structure_json +
                 ",\"diagnostics\":" + r.diagnostics.ToJson(path) + "}";
      });
}
