// Test oracle for the wire codec's number paths: the std::from_chars
// decoder and the line-by-line payload parsers that Request::Parse and
// Response::Parse used before weight, marg and mpe lines got their
// one-pass readers. protocol_test checks that the production codec
// accepts exactly the tokens and payloads these accept, with
// bit-identical values.
//
// Two deliberate differences from those parsers, both also in the
// production codec: marg and mpe literals are bounded to +-2^28 as weight
// literals always were, and a refused marg line quotes its token the way
// a refused weight line does.

#ifndef TBC_TESTS_WIRE_CODEC_ORACLE_H_
#define TBC_TESTS_WIRE_CODEC_ORACLE_H_

#include <cctype>
#include <charconv>
#include <cmath>
#include <limits>
#include <string>
#include <string_view>

#include "base/result.h"
#include "base/strings.h"
#include "serve/protocol.h"

namespace tbc::serve::oracle {

/// The general hexfloat/decimal decoder: an optional sign, "inf" or
/// "infinity", else std::from_chars (hex after a "0x"/"0X" prefix). NaN is
/// refused, and so is a token longer than 63 bytes.
inline bool DecodeDouble(std::string_view token, double* out) {
  if (token.empty() || token.size() > 63) return false;
  std::string_view t = token;
  bool negative = false;
  if (t[0] == '+' || t[0] == '-') {
    negative = t[0] == '-';
    t.remove_prefix(1);
    if (t.empty()) return false;
  }
  double value = 0.0;
  if (t == "inf" || t == "infinity") {
    value = std::numeric_limits<double>::infinity();
  } else {
    std::chars_format format = std::chars_format::general;
    if (t.size() > 2 && t[0] == '0' && (t[1] == 'x' || t[1] == 'X')) {
      t.remove_prefix(2);
      format = std::chars_format::hex;
    }
    const auto [ptr, ec] =
        std::from_chars(t.data(), t.data() + t.size(), value, format);
    if (ec != std::errc() || ptr != t.data() + t.size()) return false;
    if (std::isnan(value)) return false;
  }
  *out = negative ? -value : value;
  return true;
}

inline Status Bad(const std::string& what) { return Status::InvalidInput(what); }

inline bool ParseLiteral(std::string_view token, int* out) {
  return ParseInt(token, out) && *out != 0 && *out >= -(1 << 28) &&
         *out <= (1 << 28);
}

inline bool NextLine(std::string_view* rest, std::string_view* line) {
  if (rest->empty()) return false;
  const size_t nl = rest->find('\n');
  if (nl == std::string_view::npos) {
    *line = *rest;
    rest->remove_prefix(rest->size());
  } else {
    *line = rest->substr(0, nl);
    rest->remove_prefix(nl + 1);
  }
  if (!line->empty() && line->back() == '\r') line->remove_suffix(1);
  return true;
}

inline void SplitKey(std::string_view line, std::string_view* key,
                     std::string_view* value) {
  const size_t sp = line.find(' ');
  *key = line.substr(0, sp);
  *value = sp == std::string_view::npos ? std::string_view()
                                        : line.substr(sp + 1);
}

inline Status TakeBlob(std::string_view rest, std::string_view count_token,
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

/// "<lit> <double>" split on its first space.
inline Status ParseLiteralValue(const std::string& key, std::string_view value,
                                int* lit, double* v) {
  const size_t sp = value.find(' ');
  if (sp == std::string_view::npos) return Bad(key + " needs 'LIT W'");
  if (!ParseLiteral(value.substr(0, sp), lit)) {
    return Bad("bad " + key + " literal '" +
               std::string(value.substr(0, sp)) + "'");
  }
  if (!DecodeDouble(value.substr(sp + 1), v)) {
    return Bad("bad " + key + " value '" + std::string(value.substr(sp + 1)) +
               "'");
  }
  return Status::Ok();
}

inline Result<Request> ParseRequest(std::string_view payload) {
  Request req;
  std::string_view rest = payload;
  std::string_view line;
  if (!NextLine(&rest, &line) || line != "tbcq 1") {
    return Bad("request does not start with 'tbcq 1'");
  }
  bool saw_op = false, saw_timeout = false, saw_nodes = false,
       saw_decisions = false;
  while (NextLine(&rest, &line)) {
    if (line.empty()) return Bad("empty line in request");
    std::string_view key, value;
    SplitKey(line, &key, &value);
    if (key == "op") {
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
    } else if (key == "weight") {
      if (req.weights.size() >= (1u << 21)) return Bad("too many weight lines");
      int lit = 0;
      double w = 0.0;
      TBC_RETURN_IF_ERROR(ParseLiteralValue("weight", value, &lit, &w));
      if (w < 0.0 || std::isinf(w)) {
        return Bad("bad weight value '" +
                   std::string(value.substr(value.find(' ') + 1)) + "'");
      }
      req.weights.emplace_back(lit, w);
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

inline Result<Response> ParseResponse(std::string_view payload) {
  Response resp;
  std::string_view rest = payload;
  std::string_view line;
  if (!NextLine(&rest, &line) || line != "tbcr 1") {
    return Bad("response does not start with 'tbcr 1'");
  }
  bool saw_status = false, saw_cache = false, saw_message = false,
       saw_count = false, saw_mpe_weight = false, saw_nodes = false,
       saw_edges = false;
  while (NextLine(&rest, &line)) {
    if (line.empty()) return Bad("empty line in response");
    std::string_view key, value;
    SplitKey(line, &key, &value);
    if (key == "status") {
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
    } else if (key == "marg") {
      if (resp.marginals.size() >= (1u << 21)) return Bad("too many marg lines");
      int lit = 0;
      double v = 0.0;
      TBC_RETURN_IF_ERROR(ParseLiteralValue("marg", value, &lit, &v));
      resp.marginals.emplace_back(lit, v);
    } else if (key == "mpe_weight") {
      if (saw_mpe_weight) return Bad("duplicate mpe_weight");
      if (!DecodeDouble(value, &resp.mpe_weight)) return Bad("bad mpe_weight");
      saw_mpe_weight = true;
    } else if (key == "mpe") {
      if (resp.has_mpe) return Bad("duplicate mpe");
      size_t i = 0;
      while (true) {
        while (i < value.size() &&
               std::isspace(static_cast<unsigned char>(value[i]))) {
          ++i;
        }
        if (i == value.size()) break;
        size_t e = i;
        while (e < value.size() &&
               !std::isspace(static_cast<unsigned char>(value[e]))) {
          ++e;
        }
        if (resp.mpe.size() >= (1u << 21)) return Bad("too many mpe literals");
        int lit = 0;
        if (!ParseLiteral(value.substr(i, e - i), &lit)) {
          return Bad("bad mpe literal");
        }
        resp.mpe.push_back(lit);
        i = e;
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

}  // namespace tbc::serve::oracle

#endif  // TBC_TESTS_WIRE_CODEC_ORACLE_H_
