#ifndef TBC_SERVE_PROTOCOL_H_
#define TBC_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/guard.h"
#include "base/result.h"

namespace tbc::serve {

/// Wire protocol of the KC service (DESIGN.md "Serving layer").
///
/// Framing: every message — request or response — travels as one frame:
///
///   bytes 0..3   magic "tbc1"
///   bytes 4..7   payload length, uint32 little-endian
///   bytes 8..    payload (exactly that many bytes)
///
/// The payload is a line-oriented text document (key SP value per line)
/// terminated by an optional raw blob introduced by a byte-counted header
/// line ("cnf <n>" / "stats <n>"). Text keeps the protocol debuggable with
/// netcat; the length prefix keeps parsing O(frame) with a hard cap.
///
/// Trust boundary: every byte off the wire is adversarial. Frame length is
/// capped before allocation, all numeric fields are strictly parsed,
/// unknown or duplicate keys are rejected, and blob byte counts must match
/// the remaining payload exactly. A malformed frame never aborts the
/// server: it yields a typed kInvalidInput response (when a response can
/// still be framed) or a closed connection — both observable, neither
/// fatal.
///
/// Doubles (weights, WMC results) travel as C hexfloats (emitted with
/// std::to_chars, which unlike "%a" never embeds the run-time locale's
/// radix character), so a
/// value round-trips bit-exactly: the soak test's bit-identical assertion
/// holds across the wire, not just in memory.

/// Frame header constants.
inline constexpr char kFrameMagic[4] = {'t', 'b', 'c', '1'};
inline constexpr size_t kFrameHeaderBytes = 8;
/// Default cap on a single frame's payload (server and client).
inline constexpr size_t kDefaultMaxFrameBytes = 32u << 20;

/// Operations a request can ask for.
enum class Op : uint8_t {
  kPing = 0,   // liveness probe; no CNF
  kCompile,    // compile (or find cached) and report circuit stats
  kCount,      // exact model count
  kWmc,        // weighted model count
  kMar,        // all per-literal marginal WMCs
  kMpe,        // most probable explanation (maximizing assignment)
  kStats,      // live observability dump (pinned JSON schema); no CNF
};

const char* OpName(Op op);
bool OpFromName(std::string_view name, Op* out);

/// A parsed request. `cnf_text` is the raw DIMACS blob — the server hashes
/// these bytes for the artifact cache and parses them with the hardened
/// CNF parser.
struct Request {
  Op op = Op::kPing;
  /// Client-side deadline propagated to the server; 0 = server default.
  double timeout_ms = 0.0;
  uint64_t max_nodes = 0;
  uint64_t max_decisions = 0;
  /// Per-literal weight overrides (DIMACS literal, weight); unmentioned
  /// literals weigh 1.0.
  std::vector<std::pair<int, double>> weights;
  std::string cnf_text;

  /// Appends the payload to *out in place (no per-line temporaries).
  void AppendTo(std::string* out) const { AppendTo(timeout_ms, out); }
  /// The same payload carrying `timeout_ms` in place of the field's own
  /// value: the client's deadline propagation, without copying the CNF.
  void AppendTo(double timeout_ms, std::string* out) const;
  /// AppendTo into a fresh string.
  std::string Serialize() const;
  /// Strict parse of a request payload. Never throws; never aborts.
  static Result<Request> Parse(std::string_view payload);
};

/// A parsed response. `status`/`message` mirror Status; every non-kOk
/// response is a *typed* refusal or error the client can branch on.
struct Response {
  StatusCode status = StatusCode::kOk;
  std::string message;          // single line, empty when ok
  std::string count;            // kCount/kCompile: decimal model count
  bool has_wmc = false;
  double wmc = 0.0;             // kWmc: weighted count (hexfloat on wire)
  std::vector<std::pair<int, double>> marginals;  // kMar: (dimacs lit, wmc)
  bool has_mpe = false;
  double mpe_weight = 0.0;
  std::vector<int> mpe;         // kMpe: maximizing assignment, DIMACS lits
  uint64_t circuit_nodes = 0;   // kCompile: circuit size
  uint64_t circuit_edges = 0;
  std::string artifact;         // content-hash key, 32 hex chars
  bool cache_hit = false;
  std::string stats_json;       // kStats: observability dump

  bool ok() const { return status == StatusCode::kOk; }
  /// The response's status as a Status (for propagating into Result<T>).
  Status ToStatus() const;

  /// Appends the payload to *out in place (no per-line temporaries).
  void AppendTo(std::string* out) const;
  /// AppendTo into a fresh string.
  std::string Serialize() const;
  /// Strict parse of a response payload (the client's trust boundary: the
  /// server may be lying, truncated, or replaced by an attacker). Every
  /// key the serializer writes once may appear at most once, and
  /// `mpe_weight` and `mpe` only together.
  static Result<Response> Parse(std::string_view payload);
};

/// In-place framing: BeginFrame appends the magic and a length
/// placeholder and returns the frame's start offset in *out; once the
/// payload has been appended after it, FinishFrame patches in its length.
///
///   const size_t start = BeginFrame(&buf);
///   resp.AppendTo(&buf);
///   FinishFrame(start, &buf);
size_t BeginFrame(std::string* out);
void FinishFrame(size_t frame_start, std::string* out);

/// Encodes a payload into a full frame (header + payload).
std::string EncodeFrame(std::string_view payload);

/// Validates a frame header; on success sets *payload_len. Typed
/// kInvalidInput on bad magic or a length above `max_frame_bytes`.
Status DecodeFrameHeader(const unsigned char header[kFrameHeaderBytes],
                         size_t max_frame_bytes, size_t* payload_len);

/// Hexfloat encode/decode used for every double on the wire.
std::string EncodeDouble(double v);
bool DecodeDouble(std::string_view token, double* out);

}  // namespace tbc::serve

#endif  // TBC_SERVE_PROTOCOL_H_
