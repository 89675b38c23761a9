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
//                          ephemeral; required)
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
//     --fault-prob=P       per-hit fire probability in [0, 1] for every
//                          point under --fault-seed (default 0.02)
//     --stats[=json]       dump the observability registry on exit
//
// SIGTERM / SIGINT drain gracefully: stop accepting, refuse new requests
// with typed kUnavailable, let in-flight requests finish, then exit 0.
//
// Exit codes: 0 = clean shutdown, 1 = usage or bind/IO error. A missing
// --listen, a malformed numeric flag and a failed --port-file write are
// usage/IO errors; every flag is checked before the socket is bound.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <thread>

#include "base/fault.h"
#include "cli.h"
#include "serve/server.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace tbc;
  using namespace tbc::serve;
  cli::IgnoreSigpipe();  // broken pipes are typed errors, not death
  const cli::Args args("tbc_serve", argc, argv);

  if (args.Has("--help")) {
    std::printf(
        "usage: tbc_serve --listen=unix:PATH|tcp:HOST:PORT|:PORT\n"
        "                 [--workers=N] [--queue=N] [--max-connections=N]\n"
        "                 [--cache=N] [--store-dir=DIR]\n"
        "                 [--default-timeout-ms=N]\n"
        "                 [--max-timeout-ms=N] [--idle-timeout-ms=N]\n"
        "                 [--max-width=N]\n"
        "                 [--port-file=PATH] [--fault-seed=N]\n"
        "                 [--fault-prob=P] [--stats[=json]]\n");
    return 0;
  }

  ServerOptions opts;
  const char* listen_arg = args.Get("--listen");
  if (listen_arg == nullptr) {
    std::fprintf(stderr, "tbc_serve: --listen=ADDR is required\n");
    return 1;
  }
  auto addr = ParseAddress(listen_arg);
  if (!addr.ok()) {
    std::fprintf(stderr, "tbc_serve: %s\n", addr.status().message().c_str());
    return 1;
  }
  opts.address = *addr;
  uint64_t fault_seed = 0;
  double fault_prob = 0.02;
  if (!args.Read("--workers", &opts.num_workers, 1) ||
      !args.Read("--queue", &opts.max_queue) ||
      !args.Read("--max-connections", &opts.max_connections) ||
      !args.Read("--cache", &opts.cache_capacity) ||
      !args.Read("--idle-timeout-ms", &opts.idle_timeout_ms, 0) ||
      !args.Read("--default-timeout-ms", &opts.default_timeout_ms, 0.0) ||
      !args.Read("--max-timeout-ms", &opts.max_timeout_ms, 0.0) ||
      !args.Read("--max-width", &opts.max_forecast_width) ||
      !args.Read("--fault-seed", &fault_seed) ||
      !args.Read("--fault-prob", &fault_prob, 0.0, 1.0) ||
      !cli::CheckStats(args)) {
    return 1;
  }
  if (const char* dir = args.Get("--store-dir")) {
    std::error_code ec;
    if (!std::filesystem::is_directory(dir, ec)) {
      std::fprintf(stderr, "tbc_serve: --store-dir=%s is not a directory\n",
                   dir);
      return 1;
    }
    opts.store_dir = dir;
  }

  // Deterministic fault plan for soak/chaos runs from the command line.
  std::unique_ptr<fault::FaultPlan> fault_plan;
  std::unique_ptr<fault::ScopedFaultPlan> plan_scope;
  if (args.Get("--fault-seed") != nullptr) {
    fault_plan = std::make_unique<fault::FaultPlan>(fault_seed, fault_prob);
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
  if (const char* port_file = args.Get("--port-file")) {
    if (!cli::WriteFile(args, port_file,
                        std::to_string((*server)->port()) + "\n")) {
      return 1;
    }
  }

  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::printf("tbc_serve: draining (in-flight finish, new refused)\n");
  std::fflush(stdout);
  (*server)->Shutdown();

  cli::DumpStats(args, stdout);
  std::printf("tbc_serve: clean shutdown\n");
  return 0;
}
