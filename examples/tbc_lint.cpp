// tbc_lint: static verification of tractable-circuit files. Reads circuit
// artifacts (.nnf / .sdd / .psdd, plus OBDDs serialized as .nnf) and checks
// the invariant ladder the paper's queries rely on — well-formedness,
// decomposability, determinism, smoothness, ordering/reducedness, SDD
// structure/compression/trimming, PSDD normalization — without evaluating a
// single query. Violations are reported as stable rule ids with witnesses.
//
// Usage:
//   tbc_lint [options] FILE...
//     --lang=nnf|dnnf|ddnnf|sd-dnnf|dec-dnnf|obdd|sdd|psdd
//                        language to verify against (default: by extension;
//                        .nnf is checked as ddnnf, .sdd as sdd, .psdd as psdd)
//     --vtree=FILE       vtree the .sdd/.psdd files were written against
//                        (required for those languages)
//     --format=text|json diagnostic rendering (default text; json is one
//                        array with one report per file)
//     --no-sat           syntactic checks only: skip SAT-backed determinism
//                        and partition proofs
//     --max-sat-checks=N cap on solver calls per file (default 4096)
//     --list-rules       print every rule id and exit
//     --stats[=json]     dump the observability registry to stderr after
//                        linting (counters/gauges/histograms; stderr so the
//                        JSON diagnostic stream on stdout stays parseable)
//
// Exit codes: 0 = all files clean (warnings allowed), 1 = usage error (a
// malformed numeric flag included) or at least one unreadable file (rule
// circuit.io), 2 = at least one error-severity violation (an empty or
// unparseable file included). Every listed file is linted and reported
// even when an earlier one fails; 1 wins over 2.

#include <cstdio>
#include <cstring>
#include <string>

#include "analysis/diagnostics.h"
#include "analysis/nnf_analyzer.h"
#include "analysis/psdd_analyzer.h"
#include "analysis/rules.h"
#include "analysis/sdd_analyzer.h"
#include "cli.h"
#include "nnf/io.h"
#include "nnf/nnf.h"
#include "vtree/vtree.h"

namespace {

// The language a file is checked against: --lang wins, then the extension.
std::string LangOf(const char* forced_lang, const std::string& path) {
  if (forced_lang != nullptr) return forced_lang;
  auto ends_with = [&](const char* ext) {
    const size_t n = std::strlen(ext);
    return path.size() > n && path.compare(path.size() - n, n, ext) == 0;
  };
  return ends_with(".sdd") ? "sdd" : ends_with(".psdd") ? "psdd" : "ddnnf";
}

}  // namespace

int main(int argc, char** argv) {
  tbc::cli::IgnoreSigpipe();
  using namespace tbc;
  const cli::Args args("tbc_lint", argc, argv);
  const bool no_sat = args.Has("--no-sat");
  size_t max_sat_checks = 4096;
  if (!args.Read("--max-sat-checks", &max_sat_checks) ||
      !cli::CheckStats(args)) {
    return 1;
  }
  const char* forced_lang = args.Get("--lang");
  NnfDialect dialect{};
  if (forced_lang != nullptr && std::strcmp(forced_lang, "sdd") != 0 &&
      std::strcmp(forced_lang, "psdd") != 0 &&
      !ParseNnfDialect(forced_lang, &dialect)) {
    std::fprintf(stderr, "tbc_lint: unknown --lang=%s\n", forced_lang);
    return 1;
  }

  // The vtree is shared by every .sdd/.psdd file on the command line (the
  // exchange format references vtree nodes by in-order position).
  Vtree vtree = Vtree::Balanced(Vtree::IdentityOrder(1));
  if (const char* vtree_path = args.Get("--vtree")) {
    std::string text;
    if (!cli::ReadFile(vtree_path, &text)) {
      std::fprintf(stderr, "tbc_lint: cannot read vtree %s\n", vtree_path);
      return 1;
    }
    auto parsed = Vtree::Parse(text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "tbc_lint: %s: %s\n", vtree_path,
                   parsed.status().message().c_str());
      return 1;
    }
    vtree = *std::move(parsed);
  } else {
    for (const char* path : args.Positionals()) {
      const std::string lang = LangOf(forced_lang, path);
      if (lang == "sdd" || lang == "psdd") {
        std::fprintf(stderr,
                     "tbc_lint: %s: --vtree=FILE is required for %s files\n",
                     path, lang.c_str());
        return 1;
      }
    }
  }

  const char* usage =
      "usage: tbc_lint [options] FILE...\n"
      "  --lang=nnf|dnnf|ddnnf|sd-dnnf|dec-dnnf|obdd|sdd|psdd\n"
      "  --vtree=FILE       vtree for .sdd/.psdd files\n"
      "  --format=text|json\n"
      "  --no-sat           syntactic checks only\n"
      "  --max-sat-checks=N cap on solver calls per file (default 4096)\n"
      "  --list-rules       print every rule id and exit\n"
      "  --stats[=json]     dump observability metrics to stderr\n"
      "exit: 0 clean, 1 usage/io error, 2 violations\n";
  return cli::RunReportTool(
      args, usage, "", rules::kCircuitIo,
      [&](const char* path, const std::string* text, cli::FileReport& r) {
        if (text == nullptr) return;
        const std::string lang = LangOf(forced_lang, path);
        if (lang == "sdd") {
          SddAnalysisOptions options;
          options.check_partition = !no_sat;
          AnalyzeSddFile(*text, vtree, options, r.diagnostics);
        } else if (lang == "psdd") {
          AnalyzePsddFile(*text, vtree, r.diagnostics);
        } else {
          NnfAnalysisOptions options;
          ParseNnfDialect(lang.c_str(), &options.dialect);
          options.sat_determinism = !no_sat;
          options.max_sat_checks = max_sat_checks;
          NnfManager mgr;
          auto root = ReadNnf(mgr, *text, &options.expected_num_vars);
          if (!root.ok()) {
            r.diagnostics.Add(Severity::kError, rules::kNnfParse, 0, "",
                              root.status().message());
          } else {
            AnalyzeNnf(mgr, *root, options, r.diagnostics);
          }
        }
        r.exit = r.diagnostics.clean() ? 0 : 2;
        r.clean_line = std::string(path) + ": clean (" + lang + ")\n";
      });
}
