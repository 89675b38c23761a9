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
//     --format=text|json diagnostic rendering (default text)
//     --no-sat           syntactic checks only: skip SAT-backed determinism
//                        and partition proofs
//     --max-sat-checks=N cap on solver calls per file (default 4096)
//     --list-rules       print every rule id and exit
//     --stats            dump the observability registry to stderr after
//                        linting (counters/gauges/histograms; stderr so the
//                        JSON diagnostic stream on stdout stays parseable)
//
// Exit codes: 0 = all files clean (warnings allowed), 1 = usage or I/O
// error, 2 = at least one error-severity violation (an empty or
// unparseable file included).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "analysis/nnf_analyzer.h"
#include "analysis/psdd_analyzer.h"
#include "analysis/rules.h"
#include "analysis/sdd_analyzer.h"
#include "base/observability.h"
#include "base/strings.h"
#include "cli.h"
#include "nnf/io.h"
#include "nnf/nnf.h"
#include "vtree/vtree.h"

namespace {

void Usage() {
  std::printf(
      "usage: tbc_lint [options] FILE...\n"
      "  --lang=nnf|dnnf|ddnnf|sd-dnnf|dec-dnnf|obdd|sdd|psdd\n"
      "  --vtree=FILE       vtree for .sdd/.psdd files\n"
      "  --format=text|json\n"
      "  --no-sat           syntactic checks only\n"
      "  --max-sat-checks=N cap on solver calls per file (default 4096)\n"
      "  --list-rules       print every rule id and exit\n"
      "  --stats            dump observability metrics to stderr\n"
      "exit: 0 clean, 1 usage/io error, 2 violations\n");
}

}  // namespace

int main(int argc, char** argv) {
  tbc::cli::IgnoreSigpipe();
  using namespace tbc;
  using cli::Arg;
  using cli::Flag;

  if (Flag(argc, argv, "--list-rules")) {
    size_t count = 0;
    const tbc::RuleInfo* all = tbc::AllRules(&count);
    for (size_t i = 0; i < count; ++i) {
      std::printf("%-24s %s\n", all[i].id, all[i].summary);
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
    std::fprintf(stderr, "tbc_lint: unknown --format=%s\n", format);
    return 1;
  }
  const bool no_sat = Flag(argc, argv, "--no-sat");
  uint64_t max_sat_checks = 4096;
  if (const char* cap = Arg(argc, argv, "--max-sat-checks")) {
    if (!ParseUint64(cap, &max_sat_checks)) {
      std::fprintf(stderr, "tbc_lint: bad --max-sat-checks=%s\n", cap);
      return 1;
    }
  }

  // The vtree is shared by every .sdd/.psdd file on the command line (the
  // exchange format references vtree nodes by in-order position).
  Vtree vtree = Vtree::Balanced(Vtree::IdentityOrder(1));
  bool have_vtree = false;
  if (const char* vtree_path = Arg(argc, argv, "--vtree")) {
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
    have_vtree = true;
  }

  const char* forced_lang = Arg(argc, argv, "--lang");
  bool any_error = false;
  std::string json_out = "[";
  bool first_json = true;

  for (const char* path : files) {
    // Pick the language: --lang wins, then the file extension.
    std::string lang = forced_lang != nullptr ? forced_lang : "";
    if (lang.empty()) {
      const std::string p = path;
      if (p.size() > 4 && p.compare(p.size() - 4, 4, ".sdd") == 0) {
        lang = "sdd";
      } else if (p.size() > 5 && p.compare(p.size() - 5, 5, ".psdd") == 0) {
        lang = "psdd";
      } else {
        lang = "ddnnf";
      }
    }

    std::string text;
    if (!cli::ReadFile(path, &text)) {
      std::fprintf(stderr, "tbc_lint: cannot read %s\n", path);
      return 1;
    }

    DiagnosticReport report;
    if (lang == "sdd" || lang == "psdd") {
      if (!have_vtree) {
        std::fprintf(stderr,
                     "tbc_lint: %s: --vtree=FILE is required for %s files\n",
                     path, lang.c_str());
        return 1;
      }
      if (lang == "sdd") {
        SddAnalysisOptions options;
        options.check_partition = !no_sat;
        AnalyzeSddFile(text, vtree, options, report);
      } else {
        AnalyzePsddFile(text, vtree, report);
      }
    } else {
      NnfAnalysisOptions options;
      if (!ParseNnfDialect(lang.c_str(), &options.dialect)) {
        std::fprintf(stderr, "tbc_lint: unknown --lang=%s\n", lang.c_str());
        return 1;
      }
      options.sat_determinism = !no_sat;
      options.max_sat_checks = static_cast<size_t>(max_sat_checks);
      NnfManager mgr;
      auto root = ReadNnf(mgr, text, &options.expected_num_vars);
      if (!root.ok()) {
        report.Add(Severity::kError, rules::kNnfParse, 0, "",
                   root.status().message());
      } else {
        AnalyzeNnf(mgr, *root, options, report);
      }
    }

    if (json) {
      if (!first_json) json_out += ",";
      json_out += report.ToJson(path);
      first_json = false;
    } else {
      if (report.empty()) {
        std::printf("%s: clean (%s)\n", path, lang.c_str());
      } else {
        std::fputs(report.ToText(path).c_str(), stdout);
      }
    }
    any_error = any_error || !report.clean();
  }

  if (json) std::printf("%s]\n", json_out.c_str());
  if (Flag(argc, argv, "--stats")) {
    std::fputs(Observability::Global().RenderText().c_str(), stderr);
  }
  return any_error ? 2 : 0;
}
