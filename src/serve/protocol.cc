#include "serve/protocol.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstring>

#include "base/strings.h"
#include "logic/lit.h"

namespace tbc::serve {

namespace {

/// Caps on repeated fields, enforced before allocation grows with
/// attacker-controlled counts.
constexpr size_t kMaxWeights = 1u << 21;  // two per variable at the 2^20 cap
constexpr size_t kMaxMpeLits = 1u << 21;
constexpr size_t kMaxMarginals = 1u << 21;

/// The longest "<lit> <hexfloat>\n" a weight or marg line ends with: an
/// int of at most 11 characters, a space, a hexfloat, the newline.
constexpr size_t kLiteralLineTailBytes = 11 + 1 + kMaxDoubleHexChars + 1;
/// The longest weight line ("weight", the longer key, and a space first).
constexpr size_t kLiteralLineBytes = 6 + 1 + kLiteralLineTailBytes;
/// The longest literal on an mpe line, with the space before it.
constexpr size_t kMpeLiteralBytes = 1 + 11;

Status Bad(const std::string& what) { return Status::InvalidInput(what); }

/// Appends "<key> <hexfloat>\n".
void AppendDoubleLine(std::string_view key, double v, std::string* out) {
  out->append(key);
  out->push_back(' ');
  AppendDoubleHex(v, out);
  out->push_back('\n');
}

/// Appends "<key> <decimal>\n".
template <typename T>
void AppendDecimalLine(std::string_view key, T v, std::string* out) {
  out->append(key);
  out->push_back(' ');
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  out->push_back('\n');
}

/// Appends "<key> <lit> <hexfloat>\n" for each entry (weight and marg
/// lines). Each line is written in one pass into a region of *out sized
/// for the longest lines, and the region is trimmed to what was written.
void AppendLiteralLines(std::string_view key,
                        const std::vector<std::pair<int, double>>& entries,
                        std::string* out) {
  const size_t at = out->size();
  out->resize(at + entries.size() * (key.size() + 1 + kLiteralLineTailBytes));
  char* p = out->data() + at;
  for (const auto& [lit, v] : entries) {
    p = std::copy(key.begin(), key.end(), p);
    *p++ = ' ';
    p = std::to_chars(p, p + 11, lit).ptr;
    *p++ = ' ';
    p = WriteDoubleHex(v, p);
    *p++ = '\n';
  }
  out->resize(static_cast<size_t>(p - out->data()));
}

/// Appends a byte-counted blob: "<key> <n>\n" and then the n bytes.
void AppendBlob(std::string_view key, std::string_view blob,
                std::string* out) {
  AppendDecimalLine(key, blob.size(), out);
  out->append(blob);
}

/// A literal token: an int in [-kMaxDimacsVar, kMaxDimacsVar], not 0.
/// The server's variable cap is far below the bound; it keeps each
/// literal's negation and std::abs defined, also for a client reading a
/// lying server.
bool ParseLiteral(std::string_view token, int* out) {
  return ParseInt(token, out) && *out != 0 && *out >= -kMaxDimacsVar &&
         *out <= kMaxDimacsVar;
}

/// Reads a literal as the serializer writes it, an optional '-' and one
/// to nine decimal digits, starting at `p`; returns one past its last
/// digit, or nullptr if the bytes there are no such literal or it is out
/// of ParseLiteral's range. Where this reads a literal, ParseLiteral reads
/// the same value from the same digits.
const char* ScanLiteral(const char* p, const char* end, int* out) {
  const bool negative = p != end && *p == '-';
  if (negative) ++p;
  const char* const first = p;
  int value = 0;
  while (p != end && p - first < 9) {
    const unsigned d = static_cast<unsigned char>(*p) - unsigned{'0'};
    if (d > 9) break;
    value = value * 10 + static_cast<int>(d);
    ++p;
  }
  if (p == first || value == 0 || value > kMaxDimacsVar) return nullptr;
  *out = negative ? -value : value;
  return p;
}

/// Length of the "<key><lit> <hexfloat>" line at the front of `rest`,
/// its newline included, if the line is in the serializer's own form;
/// 0 otherwise. `key` carries its trailing space. The line is read in one
/// pass, its literal by ScanLiteral and its double by
/// ReadDoubleHexCanonical, so there is no split into tokens. Any line this
/// reads, ParseLiteralValue reads the same values from.
size_t ReadLiteralLine(std::string_view key, std::string_view rest, int* lit,
                       double* v) {
  if (!rest.starts_with(key)) return 0;
  const char* const end = rest.data() + rest.size();
  const char* p = ScanLiteral(rest.data() + key.size(), end, lit);
  if (p == nullptr || p == end || *p != ' ') return 0;
  ++p;
  const size_t n = ReadDoubleHexCanonical(std::string_view(p, end - p), v);
  if (n == 0) return 0;
  p += n;
  if (p != end && *p++ != '\n') return 0;
  return static_cast<size_t>(p - rest.data());
}

/// Reads a weight or marg line's value, "<lit> <double>", split on its
/// first space, for any line ReadLiteralLine does not take. Refusals name
/// `key`.
Status ParseLiteralValue(std::string_view key, std::string_view value,
                         int* lit, double* v) {
  const size_t sp = value.find(' ');
  if (sp == std::string_view::npos) {
    return Bad(std::string(key) + " needs 'LIT W'");
  }
  if (!ParseLiteral(value.substr(0, sp), lit)) {
    return Bad("bad " + std::string(key) + " literal '" +
               std::string(value.substr(0, sp)) + "'");
  }
  if (!DecodeDouble(value.substr(sp + 1), v)) {
    return Bad("bad " + std::string(key) + " value '" +
               std::string(value.substr(sp + 1)) + "'");
  }
  return Status::Ok();
}

/// Reads an mpe line's literals into *out. The serializer's own form,
/// ScanLiteral literals each after one space, is read in one pass without
/// std::isspace; false means the caller reads the line again from its
/// start, token by token.
bool ReadMpeLine(std::string_view value, std::vector<int>* out) {
  const char* p = value.data();
  const char* const end = p + value.size();
  while (p != end) {
    if (out->size() >= kMaxMpeLits) return false;
    int lit = 0;
    p = ScanLiteral(p, end, &lit);
    if (p == nullptr) return false;
    out->push_back(lit);
    if (p == end) break;
    if (*p != ' ' || ++p == end) return false;
  }
  return true;
}

/// Pulls the next run of non-whitespace out of `rest` (whitespace as
/// std::isspace); false once only whitespace is left.
bool NextToken(std::string_view* rest, std::string_view* token) {
  const auto space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  size_t b = 0;
  while (b < rest->size() && space((*rest)[b])) ++b;
  if (b == rest->size()) return false;
  size_t e = b;
  while (e < rest->size() && !space((*rest)[e])) ++e;
  *token = rest->substr(b, e - b);
  rest->remove_prefix(e);
  return true;
}

/// Pulls the next '\n'-terminated line out of `rest`. Returns false at end
/// of payload. A final line without a trailing newline is accepted.
bool NextLine(std::string_view* rest, std::string_view* line) {
  if (rest->empty()) return false;
  const size_t nl = rest->find('\n');
  if (nl == std::string_view::npos) {
    *line = *rest;
    rest->remove_prefix(rest->size());
  } else {
    *line = rest->substr(0, nl);
    rest->remove_prefix(nl + 1);
  }
  // Tolerate CRLF from hand-driven clients (netcat on a DOS file).
  if (!line->empty() && line->back() == '\r') line->remove_suffix(1);
  return true;
}

/// Splits "key value..." on the first space. Key must be non-empty.
void SplitKey(std::string_view line, std::string_view* key,
              std::string_view* value) {
  const size_t sp = line.find(' ');
  if (sp == std::string_view::npos) {
    *key = line;
    *value = std::string_view();
  } else {
    *key = line.substr(0, sp);
    *value = line.substr(sp + 1);
  }
}

/// Consumes a byte-counted blob ("cnf <n>" / "stats <n>" payloads): the
/// remaining bytes of the payload must be exactly `declared`.
Status TakeBlob(std::string_view rest, std::string_view count_token,
                const char* what, std::string* out) {
  uint64_t declared = 0;
  if (!ParseUint64(count_token, &declared)) {
    return Bad(std::string(what) + " blob needs a byte count");
  }
  if (declared != rest.size()) {
    return Bad(std::string(what) + " blob byte count " +
               std::to_string(declared) + " does not match remaining " +
               std::to_string(rest.size()) + " payload bytes");
  }
  out->assign(rest.data(), rest.size());
  return Status::Ok();
}

}  // namespace

const char* OpName(Op op) {
  switch (op) {
    case Op::kPing: return "ping";
    case Op::kCompile: return "compile";
    case Op::kCount: return "count";
    case Op::kWmc: return "wmc";
    case Op::kMar: return "mar";
    case Op::kMpe: return "mpe";
    case Op::kStats: return "stats";
  }
  return "ping";
}

bool OpFromName(std::string_view name, Op* out) {
  for (Op op : {Op::kPing, Op::kCompile, Op::kCount, Op::kWmc, Op::kMar,
                Op::kMpe, Op::kStats}) {
    if (name == OpName(op)) {
      *out = op;
      return true;
    }
  }
  return false;
}

std::string EncodeDouble(double v) { return FormatDoubleHex(v); }

bool DecodeDouble(std::string_view token, double* out) {
  if (token.empty() || token.size() > 63) return false;
  return ParseDoubleAnyFormat(token, out);
}

size_t BeginFrame(std::string* out) {
  const size_t start = out->size();
  out->append(kFrameMagic, sizeof(kFrameMagic));
  out->append(kFrameHeaderBytes - sizeof(kFrameMagic), '\0');
  return start;
}

void FinishFrame(size_t frame_start, std::string* out) {
  const uint32_t len =
      static_cast<uint32_t>(out->size() - frame_start - kFrameHeaderBytes);
  for (size_t i = 0; i < 4; ++i) {
    (*out)[frame_start + sizeof(kFrameMagic) + i] =
        static_cast<char>((len >> (8 * i)) & 0xff);
  }
}

std::string EncodeFrame(std::string_view payload) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  const size_t start = BeginFrame(&frame);
  frame.append(payload);
  FinishFrame(start, &frame);
  return frame;
}

Status DecodeFrameHeader(const unsigned char header[kFrameHeaderBytes],
                         size_t max_frame_bytes, size_t* payload_len) {
  if (std::memcmp(header, kFrameMagic, sizeof(kFrameMagic)) != 0) {
    return Bad("bad frame magic");
  }
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(header[4 + i]) << (8 * i);
  }
  if (len > max_frame_bytes) {
    return Bad("frame of " + std::to_string(len) + " bytes exceeds cap of " +
               std::to_string(max_frame_bytes));
  }
  *payload_len = len;
  return Status::Ok();
}

void Request::AppendTo(double timeout, std::string* out) const {
  out->reserve(out->size() + 96 + weights.size() * kLiteralLineBytes +
               cnf_text.size());
  out->append("tbcq 1\nop ");
  out->append(OpName(op));
  out->push_back('\n');
  if (timeout > 0.0) AppendDoubleLine("timeout_ms", timeout, out);
  if (max_nodes > 0) AppendDecimalLine("max_nodes", max_nodes, out);
  if (max_decisions > 0) AppendDecimalLine("max_decisions", max_decisions, out);
  AppendLiteralLines("weight", weights, out);
  if (!cnf_text.empty()) AppendBlob("cnf", cnf_text, out);
}

std::string Request::Serialize() const {
  std::string out;
  AppendTo(&out);
  return out;
}

Result<Request> Request::Parse(std::string_view payload) {
  Request req;
  std::string_view rest = payload;
  std::string_view line;
  if (!NextLine(&rest, &line) || line != "tbcq 1") {
    return Bad("request does not start with 'tbcq 1'");
  }
  bool saw_op = false, saw_timeout = false, saw_nodes = false,
       saw_decisions = false;
  while (!rest.empty()) {
    // Weight lines outnumber all others: one in the serializer's own form
    // is read in one pass. Any other line, and one this would refuse, is
    // split into key and value below.
    int lit = 0;
    double w = 0.0;
    if (const size_t n = ReadLiteralLine("weight ", rest, &lit, &w);
        n != 0 && w >= 0.0 && req.weights.size() < kMaxWeights) {
      req.weights.emplace_back(lit, w);
      rest.remove_prefix(n);
      continue;
    }
    NextLine(&rest, &line);
    if (line.empty()) return Bad("empty line in request");
    std::string_view key, value;
    SplitKey(line, &key, &value);
    if (key == "weight") {
      if (req.weights.size() >= kMaxWeights) return Bad("too many weight lines");
      TBC_RETURN_IF_ERROR(ParseLiteralValue(key, value, &lit, &w));
      if (w < 0.0 || std::isinf(w)) {
        return Bad("bad weight value '" +
                   std::string(value.substr(value.find(' ') + 1)) + "'");
      }
      req.weights.emplace_back(lit, w);
    } else if (key == "op") {
      if (saw_op) return Bad("duplicate op");
      if (!OpFromName(value, &req.op)) {
        return Bad("unknown op '" + std::string(value) + "'");
      }
      saw_op = true;
    } else if (key == "timeout_ms") {
      if (saw_timeout) return Bad("duplicate timeout_ms");
      if (!DecodeDouble(value, &req.timeout_ms) || req.timeout_ms < 0.0 ||
          std::isinf(req.timeout_ms)) {
        return Bad("bad timeout_ms '" + std::string(value) + "'");
      }
      saw_timeout = true;
    } else if (key == "max_nodes") {
      if (saw_nodes) return Bad("duplicate max_nodes");
      if (!ParseUint64(value, &req.max_nodes)) {
        return Bad("bad max_nodes '" + std::string(value) + "'");
      }
      saw_nodes = true;
    } else if (key == "max_decisions") {
      if (saw_decisions) return Bad("duplicate max_decisions");
      if (!ParseUint64(value, &req.max_decisions)) {
        return Bad("bad max_decisions '" + std::string(value) + "'");
      }
      saw_decisions = true;
    } else if (key == "cnf") {
      TBC_RETURN_IF_ERROR(TakeBlob(rest, value, "cnf", &req.cnf_text));
      rest = std::string_view();
    } else {
      return Bad("unknown request key '" + std::string(key) + "'");
    }
  }
  if (!saw_op) return Bad("request missing op");
  const bool needs_cnf = req.op != Op::kPing && req.op != Op::kStats;
  if (needs_cnf && req.cnf_text.empty()) {
    return Bad(std::string("op ") + OpName(req.op) + " requires a cnf blob");
  }
  return req;
}

Status Response::ToStatus() const {
  if (ok()) return Status::Ok();
  return Status::Error(status, message);
}

void Response::AppendTo(std::string* out) const {
  out->reserve(out->size() + 128 + message.size() + count.size() +
               marginals.size() * kLiteralLineBytes +
               mpe.size() * kMpeLiteralBytes +
               stats_json.size());
  out->append("tbcr 1\nstatus ");
  out->append(StatusCodeName(status));
  out->push_back('\n');
  if (!message.empty()) {
    out->append("message ");
    const size_t at = out->size();
    out->append(message);
    // One line on the wire: fold embedded line breaks into spaces.
    for (size_t i = at; i < out->size(); ++i) {
      if ((*out)[i] == '\n' || (*out)[i] == '\r') (*out)[i] = ' ';
    }
    out->push_back('\n');
  }
  if (!count.empty()) {
    out->append("count ");
    out->append(count);
    out->push_back('\n');
  }
  if (has_wmc) AppendDoubleLine("wmc", wmc, out);
  AppendLiteralLines("marg", marginals, out);
  if (has_mpe) {
    AppendDoubleLine("mpe_weight", mpe_weight, out);
    // One pass over a region sized for the longest literals, then trimmed.
    const size_t at = out->size();
    out->resize(at + 4 + mpe.size() * kMpeLiteralBytes);
    char* p = std::copy_n("mpe", 3, out->data() + at);
    for (int l : mpe) {
      *p++ = ' ';
      p = std::to_chars(p, p + 11, l).ptr;
    }
    *p++ = '\n';
    out->resize(static_cast<size_t>(p - out->data()));
  }
  if (circuit_nodes > 0) AppendDecimalLine("nodes", circuit_nodes, out);
  if (circuit_edges > 0) AppendDecimalLine("edges", circuit_edges, out);
  if (!artifact.empty()) {
    out->append("artifact ");
    out->append(artifact);
    out->push_back('\n');
  }
  out->append(cache_hit ? "cache hit\n" : "cache miss\n");
  if (!stats_json.empty()) AppendBlob("stats", stats_json, out);
}

std::string Response::Serialize() const {
  std::string out;
  AppendTo(&out);
  return out;
}

Result<Response> Response::Parse(std::string_view payload) {
  Response resp;
  std::string_view rest = payload;
  std::string_view line;
  if (!NextLine(&rest, &line) || line != "tbcr 1") {
    return Bad("response does not start with 'tbcr 1'");
  }
  bool saw_status = false, saw_cache = false, saw_message = false,
       saw_count = false, saw_mpe_weight = false, saw_nodes = false,
       saw_edges = false;
  while (!rest.empty()) {
    // Marg lines outnumber all others: one in the serializer's own form is
    // read in one pass. Any other line is split into key and value below.
    int lit = 0;
    double v = 0.0;
    if (const size_t n = ReadLiteralLine("marg ", rest, &lit, &v);
        n != 0 && resp.marginals.size() < kMaxMarginals) {
      resp.marginals.emplace_back(lit, v);
      rest.remove_prefix(n);
      continue;
    }
    NextLine(&rest, &line);
    if (line.empty()) return Bad("empty line in response");
    std::string_view key, value;
    SplitKey(line, &key, &value);
    if (key == "marg") {
      if (resp.marginals.size() >= kMaxMarginals) return Bad("too many marg lines");
      TBC_RETURN_IF_ERROR(ParseLiteralValue(key, value, &lit, &v));
      resp.marginals.emplace_back(lit, v);
    } else if (key == "status") {
      if (saw_status) return Bad("duplicate status");
      if (!StatusCodeFromName(value, &resp.status)) {
        return Bad("unknown status '" + std::string(value) + "'");
      }
      saw_status = true;
    } else if (key == "message") {
      if (saw_message) return Bad("duplicate message");
      resp.message.assign(value.data(), value.size());
      saw_message = true;
    } else if (key == "count") {
      if (saw_count) return Bad("duplicate count");
      saw_count = true;
      // Decimal digits only (BigUint::ToString output).
      if (value.empty() || value.size() > (1u << 20)) return Bad("bad count");
      for (char c : value) {
        if (c < '0' || c > '9') return Bad("bad count digit");
      }
      resp.count.assign(value.data(), value.size());
    } else if (key == "wmc") {
      if (resp.has_wmc) return Bad("duplicate wmc");
      if (!DecodeDouble(value, &resp.wmc)) {
        return Bad("bad wmc '" + std::string(value) + "'");
      }
      resp.has_wmc = true;
    } else if (key == "mpe_weight") {
      if (saw_mpe_weight) return Bad("duplicate mpe_weight");
      if (!DecodeDouble(value, &resp.mpe_weight)) return Bad("bad mpe_weight");
      saw_mpe_weight = true;
    } else if (key == "mpe") {
      if (resp.has_mpe) return Bad("duplicate mpe");
      if (!ReadMpeLine(value, &resp.mpe)) {
        // Not the serializer's form: hand-written separators, or a refusal.
        resp.mpe.clear();
        std::string_view tokens = value;
        std::string_view tok;
        while (NextToken(&tokens, &tok)) {
          if (resp.mpe.size() >= kMaxMpeLits) return Bad("too many mpe literals");
          if (!ParseLiteral(tok, &lit)) return Bad("bad mpe literal");
          resp.mpe.push_back(lit);
        }
      }
      resp.has_mpe = true;
    } else if (key == "nodes") {
      if (saw_nodes) return Bad("duplicate nodes");
      if (!ParseUint64(value, &resp.circuit_nodes)) return Bad("bad nodes");
      saw_nodes = true;
    } else if (key == "edges") {
      if (saw_edges) return Bad("duplicate edges");
      if (!ParseUint64(value, &resp.circuit_edges)) return Bad("bad edges");
      saw_edges = true;
    } else if (key == "artifact") {
      if (!resp.artifact.empty()) return Bad("duplicate artifact");
      if (value.size() != 32) return Bad("artifact key must be 32 hex chars");
      for (char c : value) {
        const bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
        if (!hex) return Bad("bad artifact key");
      }
      resp.artifact.assign(value.data(), value.size());
    } else if (key == "cache") {
      if (saw_cache) return Bad("duplicate cache");
      if (value != "hit" && value != "miss") return Bad("bad cache flag");
      resp.cache_hit = value == "hit";
      saw_cache = true;
    } else if (key == "stats") {
      TBC_RETURN_IF_ERROR(TakeBlob(rest, value, "stats", &resp.stats_json));
      rest = std::string_view();
    } else {
      return Bad("unknown response key '" + std::string(key) + "'");
    }
  }
  if (!saw_status) return Bad("response missing status");
  if (saw_mpe_weight != resp.has_mpe) {
    return Bad("mpe_weight and mpe must appear together");
  }
  return resp;
}

}  // namespace tbc::serve
