// The command-line layer of the tbc tools (kc_cli, tbc_lint, tbc_certify,
// tbc_analyze, tbc_serve, tbc_client): `--name=value` options read into
// typed destinations, bare `--name` flags, whole-file reads, checked
// writes, the `--stats[=json]` dump, the SIGPIPE contract, and the driver
// the three per-file report tools share. The exit-code table these tools
// share is in README.md "Exit codes"; a malformed numeric flag and a failed
// output write exit 1 in every tool.

#ifndef TBC_EXAMPLES_CLI_H_
#define TBC_EXAMPLES_CLI_H_

#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "analysis/diagnostics.h"
#include "analysis/rules.h"
#include "base/observability.h"
#include "base/strings.h"

namespace tbc::cli {

/// True iff all of `text` is one number that fits T: an integer for an
/// integral T (unsigned types take no sign), a finite decimal for double.
template <typename T>
bool Parse(std::string_view text, T* out) {
  if constexpr (std::is_integral_v<T>) {
    const char* last = text.data() + text.size();
    T value{};
    const auto [ptr, ec] = std::from_chars(text.data(), last, value);
    if (text.empty() || ec != std::errc() || ptr != last) return false;
    *out = value;
    return true;
  } else {
    return ParseDouble(text, out);
  }
}

/// A tool's command line: `--name=value` options, bare `--name` flags and
/// positional arguments at argv[first..argc). Tools whose argv[1] is a
/// required input pass first = 2 so that argument is never read as one.
class Args {
 public:
  Args(const char* tool, int argc, char** argv, int first = 1)
      : tool_(tool), argc_(argc), argv_(argv), first_(first) {}

  const char* tool() const { return tool_; }

  /// Values of every `name=value` argument, in order.
  std::vector<const char*> All(const char* name) const {
    const size_t len = std::strlen(name);
    std::vector<const char*> values;
    for (int i = first_; i < argc_; ++i) {
      if (std::strncmp(argv_[i], name, len) == 0 && argv_[i][len] == '=') {
        values.push_back(argv_[i] + len + 1);
      }
    }
    return values;
  }

  /// Value of the first `name=value` argument, or nullptr.
  const char* Get(const char* name) const {
    const std::vector<const char*> values = All(name);
    return values.empty() ? nullptr : values.front();
  }

  /// True iff the bare flag `name` appears.
  bool Has(const char* name) const {
    for (int i = first_; i < argc_; ++i) {
      if (std::strcmp(argv_[i], name) == 0) return true;
    }
    return false;
  }

  /// The arguments that do not start with "--", in order.
  std::vector<const char*> Positionals() const {
    std::vector<const char*> out;
    for (int i = first_; i < argc_; ++i) {
      if (std::strncmp(argv_[i], "--", 2) != 0) out.push_back(argv_[i]);
    }
    return out;
  }

  /// Reads `name=VALUE` into *out; leaves *out alone when the option is
  /// absent. A value that is not a number of T's kind (Parse), does not fit
  /// T, or lies outside [min, max] is refused: prints
  /// "<tool>: --name needs <what>, got '<value>'" and returns false, and
  /// the tool exits 1.
  template <typename T>
  bool Read(const char* name, T* out,
            std::type_identity_t<T> min = std::numeric_limits<T>::lowest(),
            std::type_identity_t<T> max = std::numeric_limits<T>::max()) const {
    const char* text = Get(name);
    if (text == nullptr) return true;
    T value{};
    if (Parse(text, &value) && value >= min && value <= max) {
      *out = value;
      return true;
    }
    auto str = [](T v) {
      if constexpr (std::is_integral_v<T>) {
        return std::to_string(v);
      } else {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%g", v);
        return std::string(buf);
      }
    };
    std::string want = std::is_integral_v<T> ? "an integer" : "a number";
    if (max < std::numeric_limits<T>::max()) {
      want += " in [" + str(min) + ", " + str(max) + "]";
    } else if (std::is_integral_v<T> ||
               min > std::numeric_limits<T>::lowest()) {
      want += " >= " + str(min);
    }
    std::fprintf(stderr, "%s: %s needs %s, got '%s'\n", tool_, name,
                 want.c_str(), text);
    return false;
  }

 private:
  const char* tool_;
  int argc_;
  char** argv_;
  int first_;
};

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

/// Writes `content` to `path`, replacing the file. On failure (a missing
/// directory, no permission, a full disk) prints "<tool>: cannot write
/// <path>" and returns false, and the tool exits 1.
inline bool WriteFile(const Args& args, const char* path,
                      std::string_view content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  out.close();
  if (out) return true;
  std::fprintf(stderr, "%s: cannot write %s\n", args.tool(), path);
  return false;
}

/// `--stats` dumps the observability registry as text, `--stats=json` as
/// the JSON pinned by tools/stats_schema.json. Every tool checks the mode
/// with its other flags, before any work: any other mode prints
/// "<tool>: unknown stats mode '<mode>'" and returns false, and the tool
/// exits 1.
inline bool CheckStats(const Args& args) {
  const char* mode = args.Get("--stats");
  if (mode == nullptr || std::strcmp(mode, "json") == 0) return true;
  std::fprintf(stderr, "%s: unknown stats mode '%s'\n", args.tool(), mode);
  return false;
}

/// Dumps the registry to `out` in the mode CheckStats accepted; prints
/// nothing without `--stats`.
inline void DumpStats(const Args& args, std::FILE* out) {
  if (args.Get("--stats") != nullptr) {
    std::fputs(Observability::Global().RenderJson().c_str(), out);
  } else if (args.Has("--stats")) {
    std::fputs(Observability::Global().RenderText().c_str(), out);
  }
}

/// Piping output into a closed reader (`tool ... | head`) must surface as
/// a short write, not a SIGPIPE abort.
inline void IgnoreSigpipe() { std::signal(SIGPIPE, SIG_IGN); }

/// The worse of two exit codes, in the order 1 > 2 > 3 > 0: a usage or I/O
/// error outranks a rejected input, which outranks a refusal.
inline int WorseExit(int a, int b) {
  auto rank = [](int code) {
    return code == 0 ? 0 : code == 3 ? 1 : code == 2 ? 2 : 3;
  };
  return rank(a) >= rank(b) ? a : b;
}

/// What a report tool's check found in one file (RunReportTool).
struct FileReport {
  DiagnosticReport diagnostics;
  /// 0 passed, 2 rejected, 3 refused; the driver sets 1 for a file it
  /// cannot read.
  int exit = 0;
  /// Text mode: `text`, then the diagnostics, or `clean_line` if none.
  std::string text;
  std::string clean_line;
  /// JSON mode: this file's array entry; empty means diagnostics.ToJson.
  std::string json;
};

/// A report tool's check of one file. `text` is the file's bytes, or
/// nullptr when it could not be read: `report` then already holds the
/// tool's I/O error, and the check adds only what its JSON entry needs.
using FileCheck = std::function<void(const char* path, const std::string* text,
                                     FileReport& report)>;

/// The driver of tbc_lint, tbc_analyze and tbc_certify. `--list-rules`
/// prints the registered rules whose id starts with `rule_prefix`. Else
/// every positional file is read and checked in order, and reported even
/// when an earlier one fails; an unreadable file gets an `io_rule` error.
/// `--format=text` (the default) prints each report to stdout as it is
/// made; `--format=json` prints one array with an entry per file.
/// `--stats[=json]` (checked by the tool, CheckStats) goes to stderr, so
/// stdout stays parseable. Returns the worst exit over the files
/// (WorseExit); no file listed prints `usage` and returns 1.
inline int RunReportTool(const Args& args, const char* usage,
                         const char* rule_prefix, const char* io_rule,
                         const FileCheck& check) {
  if (args.Has("--list-rules")) {
    size_t count = 0;
    const RuleInfo* all = AllRules(&count);
    for (size_t i = 0; i < count; ++i) {
      if (std::strncmp(all[i].id, rule_prefix, std::strlen(rule_prefix)) ==
          0) {
        std::printf("%-28s %s\n", all[i].id, all[i].summary);
      }
    }
    return 0;
  }
  const std::vector<const char*> files = args.Positionals();
  if (files.empty()) {
    std::fputs(usage, stdout);
    return 1;
  }
  const char* format = args.Get("--format");
  const bool json = format != nullptr && std::strcmp(format, "json") == 0;
  if (format != nullptr && !json && std::strcmp(format, "text") != 0) {
    std::fprintf(stderr, "%s: unknown --format=%s\n", args.tool(), format);
    return 1;
  }
  int exit = 0;
  std::string entries;
  for (const char* path : files) {
    FileReport report;
    std::string text;
    const bool readable = ReadFile(path, &text);
    if (!readable) {
      std::fprintf(stderr, "%s: cannot read %s\n", args.tool(), path);
      report.diagnostics.Add(Severity::kError, io_rule, 0, "",
                             "file could not be read");
      report.exit = 1;
    }
    check(path, readable ? &text : nullptr, report);
    exit = WorseExit(exit, report.exit);
    if (json) {
      if (!entries.empty()) entries += ",";
      entries += report.json.empty() ? report.diagnostics.ToJson(path)
                                     : report.json;
    } else {
      std::fputs(report.text.c_str(), stdout);
      std::fputs(report.diagnostics.empty()
                     ? report.clean_line.c_str()
                     : report.diagnostics.ToText(path).c_str(),
                 stdout);
    }
  }
  if (json) std::printf("[%s]\n", entries.c_str());
  DumpStats(args, stderr);
  return exit;
}

}  // namespace tbc::cli

#endif  // TBC_EXAMPLES_CLI_H_
