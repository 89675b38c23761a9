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
// Exit codes: 0 = answer received, 1 = usage/IO error (a malformed numeric
// flag or --weight included) or the server's typed kInvalidInput (the
// input is wrong; retrying cannot help), 3 = typed refusal (budget
// exhausted, overloaded, draining, deadline).

#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"
#include "cli.h"
#include "serve/client.h"

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: tbc_client --connect=ADDR --op=OP [FILE.cnf]\n"
      "                  [--weight=LIT:W]... [--timeout-ms=N]\n"
      "                  [--max-nodes=N] [--max-decisions=N]\n"
      "                  [--deadline-ms=N] [--retries=N]\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tbc;
  using namespace tbc::serve;
  cli::IgnoreSigpipe();  // `tbc_client ... | head` must not abort
  const cli::Args args("tbc_client", argc, argv);

  const char* connect_arg = args.Get("--connect");
  const char* op_arg = args.Get("--op");
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
  const std::vector<const char*> inputs = args.Positionals();
  if (inputs.size() > 1) {
    Usage();
    return 1;
  }
  const bool needs_cnf = req.op != Op::kPing && req.op != Op::kStats;
  if (needs_cnf) {
    if (inputs.empty()) {
      std::fprintf(stderr, "tbc_client: --op=%s needs a CNF file\n", op_arg);
      return 1;
    }
    // "-" is stdin.
    const bool from_stdin = std::strcmp(inputs[0], "-") == 0;
    if (!cli::ReadFile(from_stdin ? "/dev/stdin" : inputs[0], &req.cnf_text)) {
      std::fprintf(stderr, "tbc_client: cannot read %s\n", inputs[0]);
      return 1;
    }
  }

  ClientOptions copts;
  copts.address = *addr;
  if (!args.Read("--timeout-ms", &req.timeout_ms, 0.0) ||
      !args.Read("--max-nodes", &req.max_nodes) ||
      !args.Read("--max-decisions", &req.max_decisions) ||
      !args.Read("--deadline-ms", &copts.deadline_ms, 0.0) ||
      !args.Read("--retries", &copts.retry.max_attempts, 1, 1000)) {
    return 1;
  }
  for (const char* spec : args.All("--weight")) {
    const char* colon = std::strchr(spec, ':');
    int lit = 0;
    double w = 0.0;
    if (colon == nullptr ||
        !cli::Parse(std::string_view(spec, colon - spec), &lit) || lit == 0 ||
        !cli::Parse(colon + 1, &w)) {
      std::fprintf(stderr,
                   "tbc_client: --weight needs LIT:W with a nonzero int LIT "
                   "and a number W, got '%s'\n",
                   spec);
      return 1;
    }
    req.weights.emplace_back(lit, w);
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
