#include "serve/client.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "base/fault.h"
#include "base/observability.h"

namespace tbc::serve {

namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)
      .count();
}

/// Every op is an idempotent pure query (compile results are cached by
/// content hash), so any failure to obtain a well-formed response —
/// connect refused, connection lost, truncated or garbage reply, recv
/// timeout — is safe to retry.
bool RetryableTransport(const Status& st) {
  switch (st.code()) {
    case StatusCode::kUnavailable:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kInvalidInput:
      return true;
    default:
      return false;
  }
}

}  // namespace

Result<Response> Client::CallOnce(const Request& req, double remaining_ms) {
  if (!conn_.valid()) {
    auto c = Connect(opts_.address);
    if (!c.ok()) return c.status();
    conn_ = std::move(*c);
  }

  // Deadline propagation: ask the server for at most what we will wait.
  double timeout_ms = req.timeout_ms;
  if (opts_.deadline_ms > 0) {
    timeout_ms =
        timeout_ms > 0 ? std::min(timeout_ms, remaining_ms) : remaining_ms;
  }
  std::string& frame = frame_;
  frame.clear();
  const size_t frame_start = BeginFrame(&frame);
  req.AppendTo(timeout_ms, &frame);
  FinishFrame(frame_start, &frame);

  Status sent = Status::Ok();
  if (TBC_FAULT_POINT("client.frame.garbage")) {
    // Valid framing, corrupted payload: the server must answer with a
    // typed kInvalidInput response, not crash or hang.
    TBC_COUNT("client.faults.injected");
    for (size_t i = kFrameHeaderBytes; i < frame.size(); i += 5) {
      frame[i] = static_cast<char>(frame[i] ^ 0x5a);
    }
    sent = SendRaw(conn_, frame);
  } else if (TBC_FAULT_POINT("client.frame.truncate")) {
    // Half a frame, then hang up: the server must drop the connection
    // without leaking the partial read.
    TBC_COUNT("client.faults.injected");
    SendRaw(conn_, std::string_view(frame).substr(0, frame.size() / 2));
    conn_.Close();
    return Status::Unavailable("injected truncated send");
  } else if (TBC_FAULT_POINT("client.frame.slow")) {
    // Dribble the first bytes: exercises the server's io timeout path
    // without tripping it (the stall stays well under io_timeout_ms).
    TBC_COUNT("client.faults.injected");
    const size_t slow = std::min<size_t>(frame.size(), 16);
    for (size_t i = 0; i < slow && sent.ok(); ++i) {
      sent = SendRaw(conn_, std::string_view(frame).substr(i, 1));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (sent.ok()) {
      sent = SendRaw(conn_, std::string_view(frame).substr(slow));
    }
  } else {
    sent = SendRaw(conn_, frame);
  }
  if (!sent.ok()) {
    conn_.Close();
    return sent;
  }

  // Wait for the reply up to the remaining client deadline (0 = forever).
  int idle_to = 0;
  if (opts_.deadline_ms > 0) {
    idle_to = std::max(1, static_cast<int>(std::ceil(remaining_ms)));
  }
  Status st = RecvFrame(conn_, opts_.max_frame_bytes, idle_to,
                        opts_.io_timeout_ms, &reply_);
  if (!st.ok()) {
    conn_.Close();
    return st;
  }
  auto resp = Response::Parse(reply_);
  if (!resp.ok()) {
    conn_.Close();  // the stream can no longer be trusted
    return resp.status();
  }
  return resp;
}

Result<Response> Client::Call(const Request& req) {
  last_attempts_ = 0;
  const auto start = Clock::now();
  double backoff = opts_.retry.initial_backoff_ms;
  Status last = Status::Unavailable("no attempts made");

  for (int attempt = 0; attempt < std::max(1, opts_.retry.max_attempts);
       ++attempt) {
    double remaining = opts_.deadline_ms > 0
                           ? opts_.deadline_ms - ElapsedMs(start)
                           : 0.0;
    if (opts_.deadline_ms > 0 && remaining <= 0) {
      return Status::DeadlineExceeded(
          "client deadline exhausted after " +
          std::to_string(last_attempts_) + " attempt(s); last: " +
          std::string(last.message()));
    }
    ++last_attempts_;
    if (attempt > 0) TBC_COUNT("client.retries");

    auto resp = CallOnce(req, remaining);
    if (resp.ok()) {
      // Server-sent load-shed / drain refusals are retryable by design;
      // every other typed status (including refusals) is the answer.
      if (resp->status != StatusCode::kOverloaded &&
          resp->status != StatusCode::kUnavailable) {
        return resp;
      }
      last = resp->ToStatus();
    } else {
      if (!RetryableTransport(resp.status())) return resp.status();
      last = resp.status();
    }

    if (attempt + 1 < opts_.retry.max_attempts) {
      double sleep_ms = backoff;
      if (opts_.deadline_ms > 0) {
        sleep_ms = std::min(sleep_ms, opts_.deadline_ms - ElapsedMs(start));
      }
      if (sleep_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(sleep_ms));
      }
      backoff = std::min(backoff * opts_.retry.backoff_multiplier,
                         opts_.retry.max_backoff_ms);
    }
  }
  return Status::Error(last.code(),
                       std::string(last.message()) + " (after " +
                           std::to_string(last_attempts_) + " attempts)");
}

}  // namespace tbc::serve
