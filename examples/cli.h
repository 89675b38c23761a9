// Command-line helpers shared by the tbc tools: `--name=value` options,
// bare `--name` flags, whole-file reads, and the SIGPIPE contract. The
// exit-code table these tools share is in README.md "Exit codes".

#ifndef TBC_EXAMPLES_CLI_H_
#define TBC_EXAMPLES_CLI_H_

#include <csignal>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

namespace tbc::cli {

/// Value of the first `name=value` argument in argv[first..argc), or
/// nullptr. Tools whose argv[1] is a positional input pass first = 2 so
/// that path is never read as an option.
inline const char* Arg(int argc, char** argv, const char* name,
                       int first = 1) {
  const size_t len = std::strlen(name);
  for (int i = first; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      return argv[i] + len + 1;
    }
  }
  return nullptr;
}

/// True iff the bare flag `name` appears in argv[first..argc).
inline bool Flag(int argc, char** argv, const char* name, int first = 1) {
  for (int i = first; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

/// True iff `path` was read into `*out`. An empty but readable file yields
/// true with `*out` empty: it then fails parsing (exit 2), which is a
/// different contract from an unreadable file (exit 1).
inline bool ReadFile(const char* path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return false;
  *out = buffer.str();
  return true;
}

/// Piping output into a closed reader (`tool ... | head`) must surface as
/// a short write, not a SIGPIPE abort.
inline void IgnoreSigpipe() { std::signal(SIGPIPE, SIG_IGN); }

}  // namespace tbc::cli

#endif  // TBC_EXAMPLES_CLI_H_
