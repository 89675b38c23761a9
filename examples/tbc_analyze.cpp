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
//     --stats              dump the observability registry to stderr
//
// Exit codes: 0 = analyzed clean, 1 = usage error or at least one file is
// unreadable (rule structure.io), 2 = at least one file is not parseable
// CNF (rule structure.parse; an empty-but-readable file lands here), 3 =
// at least one file exceeds --max-width. Severity wins across files:
// 1 over 2 over 3. Every listed file is analyzed and reported even when
// an earlier one fails, so --format=json always emits a complete array.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "analysis/rules.h"
#include "analysis/structure/forecast.h"
#include "base/observability.h"
#include "base/strings.h"
#include "cli.h"

namespace {

void Usage() {
  std::printf(
      "usage: tbc_analyze [options] FILE.cnf...\n"
      "  --format=text|json\n"
      "  --max-width=N        exit 3 when predicted width exceeds N\n"
      "  --no-minfill         skip the min-fill elimination order\n"
      "  --minfill-max-vars=N min-fill size cutoff (default 4096)\n"
      "  --list-rules         print the structure.* rule ids and exit\n"
      "  --stats              dump observability metrics to stderr\n"
      "exit: 0 clean, 1 usage/io error, 2 unparseable CNF, 3 over width "
      "cap\n");
}

}  // namespace

int main(int argc, char** argv) {
  tbc::cli::IgnoreSigpipe();
  using namespace tbc;
  using cli::Arg;
  using cli::Flag;

  if (Flag(argc, argv, "--list-rules")) {
    size_t count = 0;
    const RuleInfo* all = AllRules(&count);
    for (size_t i = 0; i < count; ++i) {
      if (std::strncmp(all[i].id, "structure.", 10) == 0) {
        std::printf("%-24s %s\n", all[i].id, all[i].summary);
      }
    }
    return 0;
  }

  std::vector<const char*> files;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) files.push_back(argv[i]);
  }
  if (files.empty()) {
    Usage();
    return 1;
  }

  const char* format = Arg(argc, argv, "--format");
  const bool json = format != nullptr && std::strcmp(format, "json") == 0;
  if (format != nullptr && !json && std::strcmp(format, "text") != 0) {
    std::fprintf(stderr, "tbc_analyze: unknown --format=%s\n", format);
    return 1;
  }
  uint64_t max_width = 0;
  if (const char* cap = Arg(argc, argv, "--max-width")) {
    if (!ParseUint64(cap, &max_width)) {
      std::fprintf(stderr, "tbc_analyze: --max-width needs an integer, "
                   "got '%s'\n", cap);
      return 1;
    }
  }
  StructureOptions options;
  if (Flag(argc, argv, "--no-minfill")) options.try_minfill = false;
  if (const char* cap = Arg(argc, argv, "--minfill-max-vars")) {
    uint64_t n = 0;
    if (!ParseUint64(cap, &n)) {
      std::fprintf(stderr, "tbc_analyze: --minfill-max-vars needs an "
                   "integer, got '%s'\n", cap);
      return 1;
    }
    options.minfill_max_vars = static_cast<uint32_t>(n);
  }

  bool any_io_error = false;
  bool any_parse_error = false;
  bool any_over_width = false;
  std::string json_out = "[";
  bool first_json = true;

  for (const char* path : files) {
    DiagnosticReport diag;
    std::string structure_json = "null";
    std::string structure_text;
    bool refused = false;
    std::string text;
    if (!cli::ReadFile(path, &text)) {
      // Diagnose in place and keep going: every listed file gets its
      // entry, so --format=json always emits a complete, valid array.
      any_io_error = true;
      std::fprintf(stderr, "tbc_analyze: cannot read %s\n", path);
      diag.Add(Severity::kError, rules::kStructureIo, 0, "",
               "file could not be read");
    } else if (auto parsed = Cnf::ParseDimacs(text); !parsed.ok()) {
      // Includes the genuinely-empty-file case: readable, but no header.
      any_parse_error = true;
      diag.Add(Severity::kError, rules::kStructureParse, 0, "",
               parsed.status().message());
    } else {
      const StructureReport report = AnalyzeCnfStructure(*parsed, options);
      StructureDiagnostics(report, diag);
      structure_json = report.ToJson();
      structure_text = report.ToText();
      if (max_width > 0 && report.best_width() > max_width) {
        any_over_width = true;
        refused = true;
        TBC_COUNT("analysis.structure.forecast_refusals");
        diag.Add(Severity::kError, rules::kStructureWidth, 0,
                 "width=" + std::to_string(report.best_width()) +
                     " cap=" + std::to_string(max_width),
                 "predicted induced width exceeds the --max-width cap; a "
                 "compile is forecast to be hopeless within reasonable "
                 "budgets");
      }
    }

    if (json) {
      if (!first_json) json_out += ",";
      json_out += "{\"file\":\"" + JsonEscape(path) + "\"" +
                  ",\"refused\":" + (refused ? "true" : "false") +
                  ",\"structure\":" + structure_json +
                  ",\"diagnostics\":" + diag.ToJson(path) + "}";
      first_json = false;
    } else {
      if (!structure_text.empty()) {
        std::printf("%s:\n%s", path, structure_text.c_str());
      }
      if (!diag.empty()) std::fputs(diag.ToText(path).c_str(), stdout);
      if (diag.empty() && !structure_text.empty()) {
        std::printf("%s: clean\n", path);
      }
    }
  }

  if (json) std::printf("%s]\n", json_out.c_str());
  if (Flag(argc, argv, "--stats")) {
    std::fputs(Observability::Global().RenderText().c_str(), stderr);
  }
  if (any_io_error) return 1;
  if (any_parse_error) return 2;
  if (any_over_width) return 3;
  return 0;
}
