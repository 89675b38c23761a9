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
//     --format=text|json diagnostic rendering (default text; json is one
//                        array with one report per file)
//     --no-count         skip the certified model-count recomputation
//     --max-work=N       cap on replay steps + UP probes per file
//     --list-rules       print every certify rule id and exit
//     --stats[=json]     dump the observability registry to stderr
//
// Exit codes: 0 = every certificate verified, 1 = usage error (a malformed
// numeric flag included) or at least one unreadable file (rule
// certify.io), 2 = at least one certificate rejected (an empty or
// unparseable file included). Every listed file is checked and reported
// even when an earlier one fails; 1 wins over 2.

#include <string>

#include "analysis/diagnostics.h"
#include "analysis/rules.h"
#include "certify/certificate.h"
#include "certify/checker.h"
#include "cli.h"

int main(int argc, char** argv) {
  tbc::cli::IgnoreSigpipe();
  using namespace tbc;
  const cli::Args args("tbc_certify", argc, argv);
  CertifyOptions options;
  options.check_count = !args.Has("--no-count");
  if (!args.Read("--max-work", &options.max_work) || !cli::CheckStats(args)) {
    return 1;
  }
  const char* usage =
      "usage: tbc_certify [options] FILE...\n"
      "  --format=text|json\n"
      "  --no-count         skip the certified model-count recomputation\n"
      "  --max-work=N       cap on replay steps + UP probes per file\n"
      "  --list-rules       print every certify rule id and exit\n"
      "  --stats[=json]     dump observability metrics to stderr\n"
      "exit: 0 verified, 1 usage/io error, 2 rejected\n";
  // Only the certify.* slice of the registry: the lint rules are tbc_lint's
  // business and listing them here would suggest this tool checks them.
  return cli::RunReportTool(
      args, usage, "certify.", rules::kCertifyIo,
      [&](const char* path, const std::string* text, cli::FileReport& r) {
        if (text == nullptr) return;
        Result<Certificate> cert = ParseCertificate(*text);
        if (!cert.ok()) {
          r.diagnostics.Add(Severity::kError, rules::kCertifyParse, 0, "",
                            cert.status().message());
          r.exit = 2;
          return;
        }
        CertifyResult result = CheckCertificate(*cert, options);
        r.diagnostics = std::move(result.report);
        r.exit = r.diagnostics.clean() ? 0 : 2;
        r.clean_line = std::string(path) + ": verified (" +
                       CertificateKindName(cert->kind);
        if (result.count_certified) {
          r.clean_line += ", " + result.certified_count.ToString() + " models";
        }
        r.clean_line += ")\n";
      });
}
