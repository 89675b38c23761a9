// tbc_client: command-line client for the tbc_serve daemon. Sends one
// request, retrying transparently on transport failures and load-shed
// refusals (retry-with-backoff), and propagates its deadline to the
// server so no one works past the caller's patience.
//
// Usage:
//   tbc_client --connect=ADDR --op=OP [FILE.cnf] [options]
//     --connect=ADDR     unix:PATH, tcp:HOST:PORT or :PORT (required)
//     --op=OP            ping | compile | count | wmc | mar | mpe | stats
//     FILE.cnf           DIMACS input ("-" = stdin; required for ops that
//                        take a CNF)
//     --weight=LIT:W     per-literal weight (repeatable; DIMACS literal)
//     --timeout-ms=N     server-side budget for this request
//     --max-nodes=N / --max-decisions=N   server-side compile caps
//     --deadline-ms=N    overall client deadline across retries
//                        (default 30000; 0 = none)
//     --retries=N        max attempts (default 4)
//
// Exit codes: 0 = answer received, 1 = usage/IO error or the server's
// typed kInvalidInput (the input is wrong; retrying cannot help),
// 3 = typed refusal (budget exhausted, overloaded, draining, deadline).

#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

#include "base/result.h"
#include "base/strings.h"
#include "cli.h"
#include "serve/client.h"

namespace {

using tbc::cli::Arg;

void Usage() {
  std::fprintf(
      stderr,
      "usage: tbc_client --connect=ADDR --op=OP [FILE.cnf]\n"
      "                  [--weight=LIT:W]... [--timeout-ms=N]\n"
      "                  [--max-nodes=N] [--max-decisions=N]\n"
      "                  [--deadline-ms=N] [--retries=N]\n");
}

// Reads the CNF from `path`, or from stdin when `path` is "-".
bool ReadInput(const char* path, std::string* out) {
  if (std::strcmp(path, "-") != 0) return tbc::cli::ReadFile(path, out);
  std::stringstream buffer;
  buffer << std::cin.rdbuf();
  *out = buffer.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tbc;
  using namespace tbc::serve;
  cli::IgnoreSigpipe();  // `tbc_client ... | head` must not abort

  const char* connect_arg = Arg(argc, argv, "--connect");
  const char* op_arg = Arg(argc, argv, "--op");
  if (connect_arg == nullptr || op_arg == nullptr) {
    Usage();
    return 1;
  }
  auto addr = ParseAddress(connect_arg);
  if (!addr.ok()) {
    std::fprintf(stderr, "tbc_client: %s\n", addr.status().message().c_str());
    return 1;
  }

  Request req;
  if (!OpFromName(op_arg, &req.op)) {
    std::fprintf(stderr, "tbc_client: unknown op '%s'\n", op_arg);
    return 1;
  }

  // The CNF file is the only positional argument.
  const char* cnf_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] != '-' || std::strcmp(argv[i], "-") == 0) {
      if (cnf_path != nullptr) {
        Usage();
        return 1;
      }
      cnf_path = argv[i];
    }
  }
  const bool needs_cnf = req.op != Op::kPing && req.op != Op::kStats;
  if (needs_cnf) {
    if (cnf_path == nullptr) {
      std::fprintf(stderr, "tbc_client: --op=%s needs a CNF file\n", op_arg);
      return 1;
    }
    if (!ReadInput(cnf_path, &req.cnf_text)) {
      std::fprintf(stderr, "tbc_client: cannot read %s\n", cnf_path);
      return 1;
    }
  }

  if (const char* t = Arg(argc, argv, "--timeout-ms")) {
    if (!ParseDouble(t, &req.timeout_ms) || req.timeout_ms < 0.0) {
      std::fprintf(stderr, "tbc_client: bad --timeout-ms '%s'\n", t);
      return 1;
    }
  }
  if (const char* n = Arg(argc, argv, "--max-nodes")) {
    if (!ParseUint64(n, &req.max_nodes)) {
      std::fprintf(stderr, "tbc_client: bad --max-nodes '%s'\n", n);
      return 1;
    }
  }
  if (const char* n = Arg(argc, argv, "--max-decisions")) {
    if (!ParseUint64(n, &req.max_decisions)) {
      std::fprintf(stderr, "tbc_client: bad --max-decisions '%s'\n", n);
      return 1;
    }
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--weight=", 9) != 0) continue;
    const char* spec = argv[i] + 9;
    const char* colon = std::strchr(spec, ':');
    double w = 0.0;
    long lit = 0;
    char* end = nullptr;
    if (colon != nullptr) lit = std::strtol(spec, &end, 10);
    if (colon == nullptr || end != colon || lit == 0 ||
        !ParseDouble(colon + 1, &w)) {
      std::fprintf(stderr, "tbc_client: bad --weight '%s' (want LIT:W)\n",
                   spec);
      return 1;
    }
    req.weights.emplace_back(static_cast<int>(lit), w);
  }

  ClientOptions copts;
  copts.address = *addr;
  if (const char* d = Arg(argc, argv, "--deadline-ms")) {
    if (!ParseDouble(d, &copts.deadline_ms) || copts.deadline_ms < 0.0) {
      std::fprintf(stderr, "tbc_client: bad --deadline-ms '%s'\n", d);
      return 1;
    }
  }
  if (const char* r = Arg(argc, argv, "--retries")) {
    uint64_t n = 0;
    if (!ParseUint64(r, &n) || n == 0 || n > 1000) {
      std::fprintf(stderr, "tbc_client: bad --retries '%s'\n", r);
      return 1;
    }
    copts.retry.max_attempts = static_cast<int>(n);
  }

  Client client(copts);
  auto result = client.Call(req);
  if (!result.ok()) {
    const Status& st = result.status();
    std::fprintf(stderr, "tbc_client: %s: %s\n", StatusCodeName(st.code()),
                 st.message().c_str());
    return IsRefusal(st.code()) ? 3 : 1;
  }
  const Response& resp = *result;
  if (!resp.ok()) {
    std::fprintf(stderr, "tbc_client: %s: %s\n", StatusCodeName(resp.status),
                 resp.message.c_str());
    return IsRefusal(resp.status) ? 3 : 1;
  }

  switch (req.op) {
    case Op::kPing:
      std::printf("pong\n");
      break;
    case Op::kStats:
      std::fputs(resp.stats_json.c_str(), stdout);
      break;
    case Op::kCompile:
      std::printf("artifact %s cache %s nodes %llu edges %llu models %s\n",
                  resp.artifact.c_str(), resp.cache_hit ? "hit" : "miss",
                  static_cast<unsigned long long>(resp.circuit_nodes),
                  static_cast<unsigned long long>(resp.circuit_edges),
                  resp.count.c_str());
      break;
    case Op::kCount:
      std::printf("%s\n", resp.count.c_str());
      break;
    case Op::kWmc:
      std::printf("%.17g\n", resp.wmc);
      break;
    case Op::kMar:
      for (const auto& [lit, wmc] : resp.marginals) {
        std::printf("%d %.17g\n", lit, wmc);
      }
      break;
    case Op::kMpe: {
      std::printf("weight %.17g\n", resp.mpe_weight);
      for (size_t i = 0; i < resp.mpe.size(); ++i) {
        std::printf("%d%c", resp.mpe[i],
                    i + 1 == resp.mpe.size() ? '\n' : ' ');
      }
      break;
    }
  }
  if (client.last_attempts() > 1) {
    std::fprintf(stderr, "tbc_client: succeeded after %d attempts\n",
                 client.last_attempts());
  }
  return 0;
}
