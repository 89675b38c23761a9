// tbc_certify: independent verification of compilation certificates.
// Reads certificate files (tbc-cert format, produced by kc_cli --certify-out
// or the certify emission API) and replays each one through the trusted
// checker core: structure, decomposability/ordering, determinism, both
// entailment directions between the embedded CNF and the emitted circuit,
// and a recomputed model count compared against the compiler's claim.
// Nothing from the compilers runs here — a certificate is evidence, not
// ground truth, until it survives this replay.
//
// Usage:
//   tbc_certify [options] FILE...
//     --format=text|json diagnostic rendering (default text)
//     --no-count         skip the certified model-count recomputation
//     --max-work=N       cap on replay steps + UP probes per file
//     --list-rules       print every certify rule id and exit
//     --stats            dump the observability registry to stderr
//
// Exit codes: 0 = every certificate verified, 1 = usage or I/O error,
// 2 = at least one certificate rejected (an empty or unparseable file
// included).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "analysis/rules.h"
#include "base/observability.h"
#include "base/strings.h"
#include "certify/certificate.h"
#include "certify/checker.h"
#include "cli.h"

namespace {

void Usage() {
  std::printf(
      "usage: tbc_certify [options] FILE...\n"
      "  --format=text|json\n"
      "  --no-count         skip the certified model-count recomputation\n"
      "  --max-work=N       cap on replay steps + UP probes per file\n"
      "  --list-rules       print every certify rule id and exit\n"
      "  --stats            dump observability metrics to stderr\n"
      "exit: 0 verified, 1 usage/io error, 2 rejected\n");
}

// Only the certify.* slice of the registry: the lint rules are tbc_lint's
// business and listing them here would suggest this tool checks them.
void ListRules() {
  size_t count = 0;
  const tbc::RuleInfo* all = tbc::AllRules(&count);
  for (size_t i = 0; i < count; ++i) {
    if (std::strncmp(all[i].id, "certify.", 8) == 0) {
      std::printf("%-28s %s\n", all[i].id, all[i].summary);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  tbc::cli::IgnoreSigpipe();
  using namespace tbc;
  using cli::Arg;
  using cli::Flag;

  if (Flag(argc, argv, "--list-rules")) {
    ListRules();
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
    std::fprintf(stderr, "tbc_certify: unknown --format=%s\n", format);
    return 1;
  }
  CertifyOptions options;
  options.check_count = !Flag(argc, argv, "--no-count");
  if (const char* cap = Arg(argc, argv, "--max-work")) {
    if (!ParseUint64(cap, &options.max_work)) {
      std::fprintf(stderr, "tbc_certify: bad --max-work=%s\n", cap);
      return 1;
    }
  }

  bool any_error = false;
  std::string json_out = "[";
  bool first_json = true;

  for (const char* path : files) {
    std::string text;
    if (!cli::ReadFile(path, &text)) {
      std::fprintf(stderr, "tbc_certify: cannot read %s\n", path);
      return 1;
    }

    CertifyResult result;
    Result<Certificate> cert = ParseCertificate(text);
    if (!cert.ok()) {
      result.report.Add(Severity::kError, rules::kCertifyParse, 0, "",
                        cert.status().message());
    } else {
      result = CheckCertificate(*cert, options);
    }

    if (json) {
      if (!first_json) json_out += ",";
      json_out += result.report.ToJson(path);
      first_json = false;
    } else if (result.ok()) {
      if (result.count_certified) {
        std::printf("%s: verified (%s, %s models)\n", path,
                    CertificateKindName(cert->kind),
                    result.certified_count.ToString().c_str());
      } else {
        std::printf("%s: verified (%s)\n", path,
                    cert.ok() ? CertificateKindName(cert->kind) : "?");
      }
    } else {
      std::fputs(result.report.ToText(path).c_str(), stdout);
    }
    any_error = any_error || !result.ok();
  }

  if (json) std::printf("%s]\n", json_out.c_str());
  if (Flag(argc, argv, "--stats")) {
    std::fputs(Observability::Global().RenderText().c_str(), stderr);
  }
  return any_error ? 2 : 0;
}
