// Wire-codec tests (DESIGN.md "Serving layer"): request/response
// round-trips, the pinned wire bytes, the hexfloat double codec, and
// adversarial parsing of every frame and payload shape. Built as its own
// binary so the ASan job can run the codec's buffer arithmetic without
// the rest of the serving suite.

#include <cmath>
#include <cstring>
#include <limits>
#include <locale>
#include <string>
#include <vector>

#include "base/hash.h"
#include "base/random.h"
#include "base/result.h"
#include "base/strings.h"
#include "gtest/gtest.h"
#include "serve/protocol.h"

namespace tbc::serve {
namespace {

constexpr const char* kSmallCnf = "p cnf 3 2\n1 2 0\n-1 3 0\n";  // 4 models

// ---------------------------------------------------------------------------
// Protocol round-trips.

TEST(Protocol, RequestRoundTripPreservesEveryField) {
  Request req;
  req.op = Op::kWmc;
  req.timeout_ms = 1234.5;
  req.max_nodes = 77;
  req.max_decisions = 88;
  req.weights = {{1, 0.1}, {-2, 0x1.fffffffffffffp-2}, {3, 1e-300}};
  req.cnf_text = kSmallCnf;

  auto parsed = Request::Parse(req.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->op, Op::kWmc);
  EXPECT_EQ(parsed->timeout_ms, 1234.5);
  EXPECT_EQ(parsed->max_nodes, 77u);
  EXPECT_EQ(parsed->max_decisions, 88u);
  ASSERT_EQ(parsed->weights.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(parsed->weights[i].first, req.weights[i].first);
    // Hexfloat wire encoding is bit-exact, so == is the right comparison.
    EXPECT_EQ(parsed->weights[i].second, req.weights[i].second);
  }
  EXPECT_EQ(parsed->cnf_text, req.cnf_text);
}

TEST(Protocol, ResponseRoundTripPreservesEveryField) {
  Response resp;
  resp.status = StatusCode::kOk;
  resp.count = "123456789123456789";
  resp.has_wmc = true;
  resp.wmc = 0x1.921fb54442d18p+1;
  resp.marginals = {{1, 0.25}, {-1, 0.75}};
  resp.has_mpe = true;
  resp.mpe_weight = 0.5;
  resp.mpe = {1, -2, 3};
  resp.circuit_nodes = 42;
  resp.circuit_edges = 41;
  resp.artifact = "00112233445566778899aabbccddeeff";
  resp.cache_hit = true;
  resp.stats_json = "{\"version\": 1}\n";

  auto parsed = Response::Parse(resp.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->status, StatusCode::kOk);
  EXPECT_EQ(parsed->count, resp.count);
  EXPECT_TRUE(parsed->has_wmc);
  EXPECT_EQ(parsed->wmc, resp.wmc);
  EXPECT_EQ(parsed->marginals, resp.marginals);
  EXPECT_TRUE(parsed->has_mpe);
  EXPECT_EQ(parsed->mpe_weight, resp.mpe_weight);
  EXPECT_EQ(parsed->mpe, resp.mpe);
  EXPECT_EQ(parsed->circuit_nodes, 42u);
  EXPECT_EQ(parsed->circuit_edges, 41u);
  EXPECT_EQ(parsed->artifact, resp.artifact);
  EXPECT_TRUE(parsed->cache_hit);
  EXPECT_EQ(parsed->stats_json, resp.stats_json);
}

TEST(Protocol, TypedRefusalRoundTrip) {
  Response resp;
  resp.status = StatusCode::kOverloaded;
  resp.message = "queue full (16 waiting)";
  auto parsed = Response::Parse(resp.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->status, StatusCode::kOverloaded);
  EXPECT_EQ(parsed->message, resp.message);
  EXPECT_TRUE(parsed->ToStatus().IsRefusal());
}

// ---------------------------------------------------------------------------
// Adversarial parsing: every wire byte is hostile.

TEST(Protocol, FrameHeaderRejectsBadMagicAndOversizedLength) {
  unsigned char header[kFrameHeaderBytes] = {'t', 'b', 'c', '1', 4, 0, 0, 0};
  size_t len = 0;
  EXPECT_TRUE(DecodeFrameHeader(header, 1024, &len).ok());
  EXPECT_EQ(len, 4u);

  header[0] = 'X';
  EXPECT_EQ(DecodeFrameHeader(header, 1024, &len).code(),
            StatusCode::kInvalidInput);

  unsigned char big[kFrameHeaderBytes] = {'t',  'b',  'c',  '1',
                                          0xff, 0xff, 0xff, 0x7f};
  EXPECT_EQ(DecodeFrameHeader(big, 1024, &len).code(),
            StatusCode::kInvalidInput);
}

TEST(Protocol, RequestParseRejectsMalformedPayloads) {
  const char* bad[] = {
      "",                                      // empty
      "tbcq 2\nop ping\n",                     // wrong version
      "nope 1\nop ping\n",                     // wrong magic line
      "tbcq 1\n",                              // missing op
      "tbcq 1\nop nonsense\n",                 // unknown op
      "tbcq 1\nop ping\nop ping\n",            // duplicate key
      "tbcq 1\nop ping\nmystery 3\n",          // unknown key
      "tbcq 1\nop count\n",                    // op needs cnf, none given
      "tbcq 1\nop count\ncnf 10\nshort",       // blob shorter than declared
      "tbcq 1\nop count\ncnf 1\nab",           // blob longer than declared
      "tbcq 1\nop wmc\nweight 0 0x1p0\ncnf 2\nxx",   // literal 0
      "tbcq 1\nop wmc\nweight 1 nan\ncnf 2\nxx",     // NaN weight
      "tbcq 1\nop ping\ntimeout_ms banana\n",  // unparseable number
  };
  for (const char* payload : bad) {
    auto parsed = Request::Parse(payload);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << payload;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidInput);
  }
}

TEST(Protocol, RandomGarbageNeverCrashesTheParsers) {
  Rng rng(20260807);
  for (int i = 0; i < 2000; ++i) {
    std::string junk(rng.Below(200), '\0');
    for (char& c : junk) c = static_cast<char>(rng.Below(256));
    (void)Request::Parse(junk);   // must return, not crash
    (void)Response::Parse(junk);
  }
  // Mutations of a valid payload: flip one byte at a time.
  Request req;
  req.op = Op::kCount;
  req.cnf_text = kSmallCnf;
  const std::string good = req.Serialize();
  for (size_t i = 0; i < good.size(); ++i) {
    std::string mutant = good;
    mutant[i] = static_cast<char>(mutant[i] ^ 0x20);
    (void)Request::Parse(mutant);
  }
}

TEST(Protocol, DoubleWireEncodingIsBitExact) {
  const double values[] = {0.0,     -0.0,   1.0,    0.1,
                           1e-300,  5e-324, 1e300,  0x1.fffffffffffffp+1023,
                           -1e-42,  3.14159265358979};
  for (double v : values) {
    double back = 0.0;
    ASSERT_TRUE(DecodeDouble(EncodeDouble(v), &back));
    EXPECT_EQ(std::memcmp(&v, &back, sizeof v), 0) << v;
  }
  double out;
  EXPECT_FALSE(DecodeDouble("nan", &out));
  EXPECT_FALSE(DecodeDouble("", &out));
  EXPECT_FALSE(DecodeDouble("0x1p0 trailing", &out));

  // The WMC transport is locale-independent: a comma-radix locale on
  // either end of the wire must not bend the encoding (the bug class the
  // hexfloat codec in base/strings exists to rule out).
  class CommaNumpunct : public std::numpunct<char> {
   protected:
    char do_decimal_point() const override { return ','; }
  };
  const std::locale saved = std::locale::global(
      std::locale(std::locale::classic(), new CommaNumpunct));
  for (double v : values) {
    double back = 0.0;
    ASSERT_TRUE(DecodeDouble(EncodeDouble(v), &back));
    EXPECT_EQ(std::memcmp(&v, &back, sizeof v), 0) << v;
  }
  std::locale::global(saved);
}

// ---------------------------------------------------------------------------
// Pinned wire bytes. Recorded from the string-concatenating codec the
// in-place one replaced: a peer built from either must read the other's
// frames byte for byte.

constexpr double kSubnormal = 4.9406564584124654e-324;  // smallest positive

Request GoldenWmcRequest() {
  Request r;
  r.op = Op::kWmc;
  r.timeout_ms = 1234.5;
  r.max_nodes = 77;
  r.max_decisions = 88;
  r.weights = {{1, -0.0}, {-2, kSubnormal}, {3, 1e308}, {-4, 0.0}, {5, 0.1}};
  r.cnf_text = kSmallCnf;
  return r;
}

Response GoldenMarMpeResponse() {
  Response s;
  s.has_wmc = true;
  s.wmc = -std::numeric_limits<double>::infinity();
  s.marginals = {{1, -0.0}, {-1, kSubnormal}, {2, 1e308}, {-2, 0.0},
                 {3, -1e-42}};
  s.has_mpe = true;
  s.mpe_weight = 0.5;
  s.mpe = {1, -2, 3};
  return s;
}

constexpr const char* kGoldenWmcRequest =
    "tbcq 1\n"
    "op wmc\n"
    "timeout_ms 0x1.34ap+10\n"
    "max_nodes 77\n"
    "max_decisions 88\n"
    "weight 1 -0x0p+0\n"
    "weight -2 0x0.0000000000001p-1022\n"
    "weight 3 0x1.1ccf385ebc8ap+1023\n"
    "weight -4 0x0p+0\n"
    "weight 5 0x1.999999999999ap-4\n"
    "cnf 23\n"
    "p cnf 3 2\n"
    "1 2 0\n"
    "-1 3 0\n";

constexpr const char* kGoldenMarMpeResponse =
    "tbcr 1\n"
    "status kOk\n"
    "wmc -inf\n"
    "marg 1 -0x0p+0\n"
    "marg -1 0x0.0000000000001p-1022\n"
    "marg 2 0x1.1ccf385ebc8ap+1023\n"
    "marg -2 0x0p+0\n"
    "marg 3 -0x1.64cfda3281e39p-140\n"
    "mpe_weight 0x1p-1\n"
    "mpe 1 -2 3\n"
    "cache miss\n";

TEST(Protocol, SerializeMatchesPinnedRequestBytes) {
  EXPECT_EQ(GoldenWmcRequest().Serialize(), kGoldenWmcRequest);

  EXPECT_EQ(Request().Serialize(), "tbcq 1\nop ping\n");
  Request stats;
  stats.op = Op::kStats;
  EXPECT_EQ(stats.Serialize(), "tbcq 1\nop stats\n");

  Request mpe;
  mpe.op = Op::kMpe;
  mpe.timeout_ms = 0.25;
  mpe.weights = {{-3, 0x1.fffffffffffffp+1023}};
  mpe.cnf_text = kSmallCnf;
  EXPECT_EQ(mpe.Serialize(),
            "tbcq 1\n"
            "op mpe\n"
            "timeout_ms 0x1p-2\n"
            "weight -3 0x1.fffffffffffffp+1023\n"
            "cnf 23\n"
            "p cnf 3 2\n"
            "1 2 0\n"
            "-1 3 0\n");
}

TEST(Protocol, SerializeMatchesPinnedResponseBytes) {
  EXPECT_EQ(GoldenMarMpeResponse().Serialize(), kGoldenMarMpeResponse);

  Response wmc;
  wmc.count = "123456789123456789";
  wmc.has_wmc = true;
  wmc.wmc = std::numeric_limits<double>::infinity();
  wmc.circuit_nodes = 42;
  wmc.circuit_edges = 41;
  wmc.artifact = "00112233445566778899aabbccddeeff";
  wmc.cache_hit = true;
  EXPECT_EQ(wmc.Serialize(),
            "tbcr 1\n"
            "status kOk\n"
            "count 123456789123456789\n"
            "wmc inf\n"
            "nodes 42\n"
            "edges 41\n"
            "artifact 00112233445566778899aabbccddeeff\n"
            "cache hit\n");

  Response refusal;
  refusal.status = StatusCode::kInvalidInput;
  refusal.message = "line one\nline two\r end";  // flattened to one line
  EXPECT_EQ(refusal.Serialize(),
            "tbcr 1\n"
            "status kInvalidInput\n"
            "message line one line two  end\n"
            "cache miss\n");

  Response empty_mpe;
  empty_mpe.has_mpe = true;
  EXPECT_EQ(empty_mpe.Serialize(),
            "tbcr 1\n"
            "status kOk\n"
            "mpe_weight 0x0p+0\n"
            "mpe\n"
            "cache miss\n");

  Response stats;
  stats.stats_json = "{\"version\": 1}\n";
  EXPECT_EQ(stats.Serialize(),
            "tbcr 1\n"
            "status kOk\n"
            "cache miss\n"
            "stats 15\n"
            "{\"version\": 1}\n");
}

TEST(Protocol, EncodeFrameMatchesPinnedHeaderBytes) {
  // "tbc1", then the payload length as uint32 little-endian.
  EXPECT_EQ(EncodeFrame(GoldenWmcRequest().Serialize()),
            std::string("tbc1\xe3\x00\x00\x00", 8) + kGoldenWmcRequest);
  EXPECT_EQ(EncodeFrame(GoldenMarMpeResponse().Serialize()),
            std::string("tbc1\xbe\x00\x00\x00", 8) + kGoldenMarMpeResponse);
  EXPECT_EQ(EncodeFrame(""), std::string("tbc1\x00\x00\x00\x00", 8));
}

// 10,000 seeded bit patterns, a share of them forced onto the special
// exponents (zeros, subnormals, infinities, NaNs), each formatted and
// joined by '\n'. The digest was recorded from the concatenating
// formatter, so it pins FormatDoubleHex's bytes; the append form must
// agree with it on every pattern.
std::vector<double> SeededBitPatterns() {
  Rng rng(20261017);
  std::vector<double> out;
  for (int i = 0; i < 10000; ++i) {
    uint64_t bits = rng.Next();
    if (i % 8 == 1) bits &= 0x800fffffffffffffull;  // zero exponent
    if (i % 8 == 2) bits |= 0x7ff0000000000000ull;  // inf / nan
    if (i % 8 == 3) bits &= 0x8000000000000000ull;  // +-0
    if (i % 8 == 4) bits = (bits & 0xfff0000000000000ull) | 0x0008000000000000ull;
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    out.push_back(v);
  }
  return out;
}

TEST(Protocol, FormatDoubleHexMatchesPinnedDigest) {
  std::string all;
  for (double v : SeededBitPatterns()) {
    all += FormatDoubleHex(v);
    all += '\n';
  }
  const ContentHash h = HashBytes(all.data(), all.size());
  EXPECT_EQ(all.size(), 175931u);
  EXPECT_EQ(h.hi, 0xcf4cd915a8b2b150ull);
  EXPECT_EQ(h.lo, 0xe899b36cf9207e91ull);
}

TEST(Protocol, AppendDoubleHexMatchesFormatDoubleHexAndRoundTrips) {
  std::string appended = "prefix";
  std::string expected = "prefix";
  for (double v : SeededBitPatterns()) {
    AppendDoubleHex(v, &appended);
    expected += FormatDoubleHex(v);
    if (std::isnan(v)) continue;
    double back = 0.0;
    ASSERT_TRUE(DecodeDouble(FormatDoubleHex(v), &back)) << FormatDoubleHex(v);
    EXPECT_EQ(std::memcmp(&v, &back, sizeof v), 0) << FormatDoubleHex(v);
  }
  EXPECT_EQ(appended, expected);
}

TEST(Protocol, AppendToBuildsTheSerializedFrameInPlace) {
  const Request req = GoldenWmcRequest();
  const Response resp = GoldenMarMpeResponse();

  // Appends after whatever the buffer already holds.
  std::string buf = "xyz";
  req.AppendTo(&buf);
  EXPECT_EQ(buf, "xyz" + req.Serialize());
  buf = "xyz";
  resp.AppendTo(&buf);
  EXPECT_EQ(buf, "xyz" + resp.Serialize());

  // In-place framing writes exactly EncodeFrame's bytes, also for a frame
  // that does not start at offset 0.
  buf = "earlier frame";
  size_t start = BeginFrame(&buf);
  resp.AppendTo(&buf);
  FinishFrame(start, &buf);
  EXPECT_EQ(buf, "earlier frame" + EncodeFrame(resp.Serialize()));

  // The timeout override writes what a copy with that timeout would.
  Request copy = req;
  copy.timeout_ms = 17.25;
  buf.clear();
  start = BeginFrame(&buf);
  req.AppendTo(17.25, &buf);
  FinishFrame(start, &buf);
  EXPECT_EQ(buf, EncodeFrame(copy.Serialize()));
  copy.timeout_ms = 0.0;  // 0 = server default: no timeout line at all
  buf.clear();
  req.AppendTo(0.0, &buf);
  EXPECT_EQ(buf, copy.Serialize());
}

// ---------------------------------------------------------------------------
// Response parsing is the client's trust boundary: every key the
// serializer emits once must appear at most once.

TEST(Protocol, ResponseParseRejectsMalformedPayloads) {
  const char* bad[] = {
      "",                                                 // empty
      "tbcr 2\nstatus kOk\n",                             // wrong version
      "tbcr 1\ncache hit\n",                              // missing status
      "tbcr 1\nstatus kOk\nstatus kOk\n",                 // duplicate status
      "tbcr 1\nstatus kOk\ncache hit\ncache hit\n",       // duplicate cache
      "tbcr 1\nstatus kOk\nmpe_weight 0x1p0\nmpe 1\nmpe_weight 0x1p0\nmpe 2\n",
      "tbcr 1\nstatus kOk\nmpe_weight 0x1p0\nmpe 1\nmpe 2\n",  // two mpe lines
      "tbcr 1\nstatus kOk\nwmc 0x1p0\nwmc 0x1p1\n",            // duplicate wmc
      "tbcr 1\nstatus kOk\ncount 4\ncount 5\n",                // duplicate count
      "tbcr 1\nstatus kInvalidInput\nmessage a\nmessage b\n",  // duplicate message
      "tbcr 1\nstatus kOk\nnodes 1\nnodes 2\n",                // duplicate nodes
      "tbcr 1\nstatus kOk\nedges 1\nedges 2\n",                // duplicate edges
      "tbcr 1\nstatus kOk\nartifact 00112233445566778899aabbccddeeff\n"
      "artifact 00112233445566778899aabbccddeeff\n",           // duplicate artifact
      "tbcr 1\nstatus kOk\nmpe_weight 0x1p0\nmpe_weight 0x1p0\nmpe 1\n",
      "tbcr 1\nstatus kOk\nmpe_weight 0x1p0\n",                // weight, no mpe
      "tbcr 1\nstatus kOk\nmpe 1 -2\n",                        // mpe, no weight
      "tbcr 1\nstatus kOk\nmpe_weight 0x1p0\nmpe 1 x\n",       // bad literal
      "tbcr 1\nstatus kOk\nmpe_weight 0x1p0\nmpe 1 0\n",       // literal 0
      "tbcr 1\nstatus kOk\nmarg 1\n",                          // marg, no value
      "tbcr 1\nstatus kOk\nstats 10\nshort",                   // blob too short
  };
  for (const char* payload : bad) {
    auto parsed = Response::Parse(payload);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << payload;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidInput) << payload;
  }
}

TEST(Protocol, ResponseParseReadsMpeTokensInPlace) {
  // Any whitespace run separates tokens, as hand-driven peers may send.
  auto parsed = Response::Parse(
      "tbcr 1\nstatus kOk\nmpe_weight 0x1p-1\nmpe 1\t-2  3 \n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_TRUE(parsed->has_mpe);
  EXPECT_EQ(parsed->mpe, (std::vector<int>{1, -2, 3}));
  EXPECT_EQ(parsed->mpe_weight, 0.5);

  auto empty = Response::Parse("tbcr 1\nstatus kOk\nmpe_weight 0x0p+0\nmpe\n");
  ASSERT_TRUE(empty.ok()) << empty.status().message();
  EXPECT_TRUE(empty->has_mpe);
  EXPECT_TRUE(empty->mpe.empty());
}

}  // namespace
}  // namespace tbc::serve
