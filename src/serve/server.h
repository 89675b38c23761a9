#ifndef TBC_SERVE_SERVER_H_
#define TBC_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "base/result.h"
#include "serve/artifact_cache.h"
#include "serve/protocol.h"
#include "serve/wire.h"

namespace tbc::serve {

/// Server tuning knobs. Every limit is a hard bound: the server never
/// holds unbounded memory on behalf of clients.
struct ServerOptions {
  Address address;              // unix:PATH or tcp (port 0 = ephemeral)
  size_t num_workers = 4;       // max concurrently *executing* requests
  size_t max_queue = 16;        // admitted-but-waiting cap; beyond = shed
  size_t max_connections = 64;  // open connections; beyond = refuse + close
  size_t cache_capacity = 8;    // compiled artifacts kept (LRU)
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  double default_timeout_ms = 10'000.0;  // when the request names none
  double max_timeout_ms = 60'000.0;      // cap on client-requested budgets
  int idle_timeout_ms = 0;      // close connections idle this long (0 = keep)
  int io_timeout_ms = 5'000;    // mid-frame stall cap (slow-loris bound)
  /// Forecast-based admission control (0 = off): compile-bearing requests
  /// whose CNF's predicted induced width exceeds this cap are refused with
  /// a typed kRefusedByForecast *before* any compile starts, so a hopeless
  /// request costs the server one *bounded* analysis pass instead of a
  /// full Guard budget. The pass runs min-fill-free under a fixed
  /// deterministic work budget — on adversarially dense CNFs it degrades
  /// to the linear scans plus a degeneracy bound rather than stalling a
  /// worker, and requests it cannot price are admitted. Already-cached
  /// artifacts bypass the check (their compile cost is already paid). The
  /// forecast is advisory — the Guard still bounds everything admitted.
  uint32_t max_forecast_width = 0;
  /// Persistent circuit store directory ("" = off). When set, every
  /// compiled artifact is spilled to `<store_dir>/<key>.tbc` and Start()
  /// warm-starts the cache from the directory before accepting
  /// connections — a restarted server answers previously compiled CNFs
  /// from mmap with zero compile activity (DESIGN.md "Persistent circuit
  /// store"). The directory must exist and is trusted for writes; files
  /// in it are still checksum-validated before being served.
  std::string store_dir;
};

/// The knowledge-compilation service (ROADMAP "KC-as-a-service"): a
/// long-lived daemon that compiles each distinct CNF once — keyed by
/// content hash — and then answers WMC/MAR/MPE/count queries against the
/// shared immutable artifact in linear time.
///
/// Robustness contract (DESIGN.md "Serving layer"):
///   - Admission control: at most `num_workers` requests execute, at most
///     `max_queue` wait; everything beyond is shed with a typed
///     kOverloaded refusal, never queued without bound.
///   - Every request runs under its own Guard (deadline + node/decision
///     caps), from min(client timeout, max_timeout_ms).
///   - Every wire byte is adversarial: malformed frames yield typed
///     kInvalidInput responses or a closed connection, never a crash.
///   - Graceful drain: Shutdown() stops accepting, refuses new requests
///     with kUnavailable, lets in-flight requests finish, joins every
///     thread. SIGTERM handling in the daemon binary calls Shutdown().
///   - Concurrency is across requests (worker threads): each query runs
///     on its worker thread, in one pass over the warmed immutable
///     artifact, so results are bit-identical at any worker count.
class Server {
 public:
  /// Binds, starts the acceptor, returns the running server. Typed errors
  /// for bind/listen failures.
  static Result<std::unique_ptr<Server>> Start(const ServerOptions& opts);

  ~Server();

  /// Graceful drain; idempotent. Returns when every connection thread has
  /// been joined.
  void Shutdown();

  /// Bound TCP port (ephemeral resolved), or -1 for unix sockets.
  int port() const { return port_; }
  const ServerOptions& options() const { return opts_; }

  /// Test-visible gauges.
  size_t active_connections() const;
  size_t executing_requests() const;
  size_t cached_artifacts() const { return cache_.size(); }
  /// Compiles started by this server's cache (ArtifactCache::compiles()).
  uint64_t compiles() const { return cache_.compiles(); }
  /// The cached artifact for `cnf_text`, or nullptr (ArtifactCache::Lookup).
  std::shared_ptr<const Artifact> LookupArtifact(const std::string& cnf_text) {
    return cache_.Lookup(cnf_text);
  }

 private:
  explicit Server(const ServerOptions& opts);

  void AcceptLoop();
  void HandleConnection(Socket conn);
  /// Admission control: reserve an execution slot or produce a typed
  /// refusal (kOverloaded when shed, kUnavailable when draining, the
  /// guard's refusal if its deadline lapses while queued).
  Status Admit(Guard& guard);
  void Release();
  /// Executes one admitted request (op dispatch) under `guard`.
  Response Execute(const Request& req, Guard& guard);

  struct Conn {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  void ReapFinishedLocked();

  const ServerOptions opts_;
  Socket listener_;
  int port_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
  ArtifactCache cache_;
  std::thread acceptor_;

  mutable std::mutex conn_mu_;
  std::vector<std::unique_ptr<Conn>> conns_;
  size_t open_conns_ = 0;

  mutable std::mutex adm_mu_;
  std::condition_variable adm_cv_;
  size_t executing_ = 0;
  size_t queued_ = 0;
};

}  // namespace tbc::serve

#endif  // TBC_SERVE_SERVER_H_
