#ifndef TBC_SERVE_CLIENT_H_
#define TBC_SERVE_CLIENT_H_

#include <cstddef>
#include <string>

#include "base/result.h"
#include "serve/protocol.h"
#include "serve/wire.h"

namespace tbc::serve {

/// Client retry policy. Every op is an idempotent pure query, so all
/// *transport* failures are retryable: connect refused, connection lost,
/// truncated or garbage replies, recv timeouts — plus the server's own
/// kOverloaded (load-shed) and kUnavailable (draining) responses. Any
/// other typed server response (kInvalidInput, budget refusals) IS the
/// answer and surfaces immediately — retrying a request the server
/// deterministically refuses only adds load.
struct RetryPolicy {
  int max_attempts = 4;
  double initial_backoff_ms = 25.0;
  double backoff_multiplier = 2.0;
  double max_backoff_ms = 1'000.0;
};

struct ClientOptions {
  Address address;
  RetryPolicy retry;
  /// Overall client-side deadline across all attempts (connect + send +
  /// wait), propagated to the server in each request's timeout_ms so the
  /// server never works past the client's patience. 0 = no deadline.
  double deadline_ms = 30'000.0;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  int io_timeout_ms = 5'000;
};

/// Blocking client for the KC service. One connection, re-dialed lazily
/// after failures. Thread-compatible (external synchronization required).
class Client {
 public:
  explicit Client(const ClientOptions& opts) : opts_(opts) {}

  /// Sends the request, retrying per the policy. The request's timeout_ms
  /// is clamped to the remaining client deadline before each attempt
  /// (deadline propagation), so a retried request asks the server for
  /// less time, not the original budget again.
  ///
  /// Returns the server's Response (which may itself carry a typed
  /// non-kOk status); a Status error only when no well-formed response
  /// could be obtained within the policy (kUnavailable / kOverloaded /
  /// kDeadlineExceeded / kInvalidInput for an unparseable reply).
  Result<Response> Call(const Request& req);

  /// Number of wire attempts made by the last Call (>= 1).
  int last_attempts() const { return last_attempts_; }

 private:
  Result<Response> CallOnce(const Request& req, double remaining_ms);

  ClientOptions opts_;
  Socket conn_;
  int last_attempts_ = 0;
  // Reused across calls: the outgoing frame, built in place, and the
  // reply payload.
  std::string frame_;
  std::string reply_;
};

}  // namespace tbc::serve

#endif  // TBC_SERVE_CLIENT_H_
