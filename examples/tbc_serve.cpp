// tbc_serve: the knowledge-compilation service daemon (ROADMAP
// "KC-as-a-service", DESIGN.md "Serving layer"). Listens on a unix or TCP
// socket, compiles each distinct CNF once (content-hash keyed), and
// answers compile/count/WMC/MAR/MPE queries against the shared immutable
// artifact — the paper's "compile once, query unboundedly" economics as a
// long-lived process.
//
// Usage:
//   tbc_serve [options]
//     --listen=ADDR        unix:PATH, tcp:HOST:PORT or :PORT (port 0 =
//                          ephemeral; default unix:/tmp/tbc_serve.sock)
//     --workers=N          max concurrently executing requests (default 4)
//     --queue=N            admitted-but-waiting cap; beyond = typed
//                          kOverloaded shed (default 16)
//     --max-connections=N  open-connection cap (default 64)
//     --cache=N            compiled artifacts kept, LRU (default 8)
//     --store-dir=DIR      persistent circuit store: spill each compiled
//                          artifact to DIR/<key>.tbc and warm-start from
//                          DIR on startup, so a restart answers previously
//                          compiled CNFs from mmap with zero compiles
//                          (DIR must exist)
//     --default-timeout-ms=N / --max-timeout-ms=N
//                          per-request budget default and ceiling
//     --max-width=N        forecast admission control: refuse compile
//                          requests whose CNF's predicted induced width
//                          exceeds N with typed kRefusedByForecast before
//                          any compile budget is consumed (0 = off)
//     --idle-timeout-ms=N  close connections idle this long (0 = keep)
//     --port-file=PATH     write the bound TCP port (scripts + tests use
//                          this with :0 ephemeral listening)
//     --fault-seed=N       arm the deterministic fault plan (see
//                          src/base/fault.h)
//     --fault-prob=P       per-hit fire probability for every point under
//                          --fault-seed (default 0.02)
//     --stats[=json]       dump the observability registry on exit
//
// SIGTERM / SIGINT drain gracefully: stop accepting, refuse new requests
// with typed kUnavailable, let in-flight requests finish, then exit 0.
//
// Exit codes: 0 = clean shutdown, 1 = usage or bind/IO error.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "base/fault.h"
#include "base/observability.h"
#include "base/strings.h"
#include "cli.h"
#include "serve/server.h"

namespace {

using tbc::cli::Arg;
using tbc::cli::Flag;

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

bool ParseSizeFlag(int argc, char** argv, const char* name, size_t* out) {
  const char* v = Arg(argc, argv, name);
  if (v == nullptr) return true;
  uint64_t n = 0;
  if (!tbc::ParseUint64(v, &n)) {
    std::fprintf(stderr, "tbc_serve: %s needs a number, got '%s'\n", name, v);
    return false;
  }
  *out = static_cast<size_t>(n);
  return true;
}

bool ParseDoubleFlag(int argc, char** argv, const char* name, double* out) {
  const char* v = Arg(argc, argv, name);
  if (v == nullptr) return true;
  if (!tbc::ParseDouble(v, out) || *out < 0.0) {
    std::fprintf(stderr, "tbc_serve: %s needs a number, got '%s'\n", name, v);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tbc;
  using namespace tbc::serve;
  cli::IgnoreSigpipe();  // broken pipes are typed errors, not death

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "usage: tbc_serve [--listen=unix:PATH|tcp:HOST:PORT|:PORT]\n"
          "                 [--workers=N] [--queue=N] [--max-connections=N]\n"
          "                 [--cache=N] [--store-dir=DIR]\n"
          "                 [--default-timeout-ms=N]\n"
          "                 [--max-timeout-ms=N] [--idle-timeout-ms=N]\n"
          "                 [--max-width=N]\n"
          "                 [--port-file=PATH] [--fault-seed=N]\n"
          "                 [--fault-prob=P] [--stats[=json]]\n");
      return 0;
    }
  }

  ServerOptions opts;
  const char* listen_arg = Arg(argc, argv, "--listen");
  auto addr = ParseAddress(listen_arg != nullptr ? listen_arg
                                                 : "unix:/tmp/tbc_serve.sock");
  if (!addr.ok()) {
    std::fprintf(stderr, "tbc_serve: %s\n", addr.status().message().c_str());
    return 1;
  }
  opts.address = *addr;
  size_t idle_ms = 0;
  if (!ParseSizeFlag(argc, argv, "--workers", &opts.num_workers) ||
      !ParseSizeFlag(argc, argv, "--queue", &opts.max_queue) ||
      !ParseSizeFlag(argc, argv, "--max-connections", &opts.max_connections) ||
      !ParseSizeFlag(argc, argv, "--cache", &opts.cache_capacity) ||
      !ParseSizeFlag(argc, argv, "--idle-timeout-ms", &idle_ms) ||
      !ParseDoubleFlag(argc, argv, "--default-timeout-ms",
                       &opts.default_timeout_ms) ||
      !ParseDoubleFlag(argc, argv, "--max-timeout-ms", &opts.max_timeout_ms)) {
    return 1;
  }
  opts.idle_timeout_ms = static_cast<int>(idle_ms);
  if (const char* dir = Arg(argc, argv, "--store-dir")) opts.store_dir = dir;
  size_t max_width = 0;
  if (!ParseSizeFlag(argc, argv, "--max-width", &max_width)) return 1;
  opts.max_forecast_width = static_cast<uint32_t>(max_width);
  if (opts.num_workers == 0) {
    std::fprintf(stderr, "tbc_serve: --workers must be >= 1\n");
    return 1;
  }

  // Deterministic fault plan for soak/chaos runs from the command line.
  std::unique_ptr<fault::FaultPlan> fault_plan;
  std::unique_ptr<fault::ScopedFaultPlan> plan_scope;
  if (const char* seed_arg = Arg(argc, argv, "--fault-seed")) {
    uint64_t seed = 0;
    if (!ParseUint64(seed_arg, &seed)) {
      std::fprintf(stderr, "tbc_serve: --fault-seed needs a number\n");
      return 1;
    }
    double prob = 0.02;
    if (!ParseDoubleFlag(argc, argv, "--fault-prob", &prob)) return 1;
    fault_plan = std::make_unique<fault::FaultPlan>(seed, prob);
    plan_scope = std::make_unique<fault::ScopedFaultPlan>(fault_plan.get());
  }

  auto server = Server::Start(opts);
  if (!server.ok()) {
    std::fprintf(stderr, "tbc_serve: %s\n",
                 server.status().message().c_str());
    return 1;
  }

  if (opts.address.is_unix()) {
    std::printf("tbc_serve: listening on unix:%s (%zu workers)\n",
                opts.address.uds_path.c_str(), opts.num_workers);
  } else {
    std::printf("tbc_serve: listening on tcp:127.0.0.1:%d (%zu workers)\n",
                (*server)->port(), opts.num_workers);
  }
  std::fflush(stdout);
  if (const char* port_file = Arg(argc, argv, "--port-file")) {
    std::FILE* f = std::fopen(port_file, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "tbc_serve: cannot write %s\n", port_file);
      return 1;
    }
    std::fprintf(f, "%d\n", (*server)->port());
    std::fclose(f);
  }

  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::printf("tbc_serve: draining (in-flight finish, new refused)\n");
  std::fflush(stdout);
  (*server)->Shutdown();

  if (const char* mode = Arg(argc, argv, "--stats")) {
    if (std::strcmp(mode, "json") != 0) {
      std::fprintf(stderr, "tbc_serve: unknown stats mode '%s'\n", mode);
      return 1;
    }
    std::fputs(Observability::Global().RenderJson().c_str(), stdout);
  } else if (Flag(argc, argv, "--stats")) {
    std::fputs(Observability::Global().RenderText().c_str(), stdout);
  }
  std::printf("tbc_serve: clean shutdown\n");
  return 0;
}
