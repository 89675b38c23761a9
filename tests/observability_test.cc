#include "base/observability.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "base/logspace.h"

namespace tbc {
namespace {

// The registry is process-global; every test starts from a clean slate.
class ObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override { Observability::Global().Reset(); }
};

TEST_F(ObservabilityTest, CounterAccumulates) {
  ObsCounter& c = Observability::Global().Counter("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(Observability::Global().CounterValue("test.counter"), 42u);
  EXPECT_EQ(Observability::Global().CounterValue("test.never_created"), 0u);
}

TEST_F(ObservabilityTest, RegistryReturnsStableReferences) {
  ObsCounter& a = Observability::Global().Counter("test.stable");
  ObsCounter& b = Observability::Global().Counter("test.stable");
  EXPECT_EQ(&a, &b);
  a.Add(7);
  Observability::Global().Reset();
  // Reset zeroes but never invalidates: cached call-site references (the
  // macros keep function-local statics) must stay usable.
  a.Add(1);
  EXPECT_EQ(b.value(), 1u);
}

TEST_F(ObservabilityTest, GaugeTracksCurrentAndPeak) {
  ObsGauge& g = Observability::Global().Gauge("test.gauge");
  g.Add(100);
  g.Add(-40);
  g.Add(30);
  EXPECT_EQ(g.current(), 90);
  EXPECT_EQ(g.peak(), 100);
  EXPECT_EQ(Observability::Global().GaugeCurrent("test.gauge"), 90);
  EXPECT_EQ(Observability::Global().GaugePeak("test.gauge"), 100);
}

TEST_F(ObservabilityTest, GaugePeakSurvivesConcurrentUpdates) {
  ObsGauge& g = Observability::Global().Gauge("test.gauge.mt");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < 10000; ++i) {
        g.Add(3);
        g.Add(-3);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(g.current(), 0);
  EXPECT_GE(g.peak(), 3);
  EXPECT_LE(g.peak(), 12);
}

TEST_F(ObservabilityTest, HistogramBucketsAndQuantiles) {
  ObsHistogram& h = Observability::Global().Histogram("test.hist");
  for (uint64_t v : {1u, 1u, 1u, 1u, 1u, 1u, 1u, 1u, 1u, 1000u}) h.Observe(v);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_EQ(h.sum(), 1009u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  // Nine of ten samples are 1, so the median bucket is exact.
  EXPECT_EQ(h.ApproxQuantile(0.5), 1u);
  // The top quantile lands in the 1000 sample's bucket, clamped to the max.
  EXPECT_EQ(h.ApproxQuantile(1.0), 1000u);
}

TEST_F(ObservabilityTest, HistogramZeroSamples) {
  ObsHistogram& h = Observability::Global().Histogram("test.hist.zero");
  EXPECT_EQ(h.ApproxQuantile(0.5), 0u);
  h.Observe(0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST_F(ObservabilityTest, CountersAreThreadSafe) {
  ObsCounter& c = Observability::Global().Counter("test.counter.mt");
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 50000; ++i) c.Add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), 400000u);
}

TEST_F(ObservabilityTest, SpansRecordHierarchy) {
  {
    TraceSpan outer("test.outer");
    { TraceSpan inner("test.inner"); }
  }
  const std::vector<SpanEvent> spans = Observability::Global().SpanEvents();
  ASSERT_EQ(spans.size(), 2u);
  // Spans are recorded on close, so the inner span lands first.
  EXPECT_EQ(spans[0].name, "test.inner");
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_EQ(spans[1].name, "test.outer");
  EXPECT_EQ(spans[1].depth, 0u);
  EXPECT_LE(spans[1].start_us, spans[0].start_us);
  // Closing a span also feeds the "span.<name>" duration histogram.
  EXPECT_EQ(Observability::Global().HistogramCount("span.test.outer"), 1u);
}

TEST_F(ObservabilityTest, SpanRingIsBounded) {
  for (size_t i = 0; i < Observability::kMaxSpanEvents + 10; ++i) {
    TraceSpan s("test.flood");
  }
  EXPECT_EQ(Observability::Global().SpanEvents().size(),
            Observability::kMaxSpanEvents);
  EXPECT_EQ(Observability::Global().spans_dropped(), 10u);
  Observability::Global().Reset();
  EXPECT_EQ(Observability::Global().spans_dropped(), 0u);
  EXPECT_TRUE(Observability::Global().SpanEvents().empty());
}

TEST_F(ObservabilityTest, RenderTextListsEverySection) {
  Observability::Global().Counter("test.render.counter").Add(3);
  Observability::Global().Gauge("test.render.gauge").Add(5);
  Observability::Global().Histogram("test.render.hist").Observe(9);
  const std::string text = Observability::Global().RenderText();
  EXPECT_NE(text.find("counters:"), std::string::npos);
  EXPECT_NE(text.find("test.render.counter = 3"), std::string::npos);
  EXPECT_NE(text.find("test.render.gauge current=5 peak=5"), std::string::npos);
  EXPECT_NE(text.find("test.render.hist count=1"), std::string::npos);
}

TEST_F(ObservabilityTest, RenderJsonIsWellFormedAndSorted) {
  Observability::Global().Counter("test.b").Add(2);
  Observability::Global().Counter("test.a").Add(1);
  Observability::Global().Gauge("test.g").Add(-7);
  const std::string json = Observability::Global().RenderJson();
  EXPECT_NE(json.find("\"version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"test.a\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"test.b\": 2"), std::string::npos);
  // std::map iteration renders names sorted: test.a before test.b.
  EXPECT_LT(json.find("\"test.a\""), json.find("\"test.b\""));
  EXPECT_NE(json.find("{\"current\": -7, \"peak\": 0}"), std::string::npos);
  EXPECT_NE(json.find("\"spans_dropped\": 0"), std::string::npos);
  // Braces balance (cheap well-formedness check without a JSON parser).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST_F(ObservabilityTest, JsonEscapesHostileNames) {
  Observability::Global().Counter("test.\"quote\\back\nline").Add(1);
  const std::string json = Observability::Global().RenderJson();
  EXPECT_NE(json.find("test.\\\"quote\\\\back\\nline"), std::string::npos);
}

TEST_F(ObservabilityTest, MacrosFeedTheGlobalRegistry) {
  TBC_COUNT("test.macro.count");
  TBC_COUNT_N("test.macro.count", 4);
  TBC_OBSERVE_VALUE("test.macro.value", 123);
  TBC_GAUGE_ADD("test.macro.gauge", 17);
  { TBC_SPAN("test.macro.span"); }
  TBC_COUNT_DYN(std::string("test.macro.") + "dyn");
  Observability& obs = Observability::Global();
  EXPECT_EQ(obs.CounterValue("test.macro.count"), 5u);
  EXPECT_EQ(obs.HistogramCount("test.macro.value"), 1u);
  EXPECT_EQ(obs.HistogramSum("test.macro.value"), 123u);
  EXPECT_EQ(obs.GaugeCurrent("test.macro.gauge"), 17);
  EXPECT_EQ(obs.HistogramCount("span.test.macro.span"), 1u);
  EXPECT_EQ(obs.CounterValue("test.macro.dyn"), 1u);
}

TEST_F(ObservabilityTest, ThreadIndexIsStablePerThread) {
  const uint32_t here = Observability::ThreadIndex();
  EXPECT_EQ(Observability::ThreadIndex(), here);
  uint32_t other = here;
  std::thread t([&other] { other = Observability::ThreadIndex(); });
  t.join();
  EXPECT_NE(other, here);
}

// --- ScaledDouble (base/logspace.h) ---------------------------------------

TEST(ScaledDoubleTest, RoundTripsRepresentableValues) {
  for (double v : {0.0, 1.0, -1.0, 0.5, 2.0, 1e-3, 1e300, -1e-300, 3.14159}) {
    EXPECT_EQ(ScaledDouble::FromDouble(v).ToDouble(), v) << v;
  }
  EXPECT_TRUE(ScaledDouble::Zero().IsZero());
  EXPECT_EQ(ScaledDouble::One().ToDouble(), 1.0);
}

TEST(ScaledDoubleTest, MantissaIsFrexpNormalized) {
  const ScaledDouble s = ScaledDouble::FromDouble(12.0);  // 0.75 * 2^4
  EXPECT_EQ(s.mantissa(), 0.75);
  EXPECT_EQ(s.exponent(), 4);
}

TEST(ScaledDoubleTest, MultiplicationMatchesDoubleBitForBit) {
  const double values[] = {1e-3, 7.25, 0.1, 123456.789, 1e3, 0.9999999};
  double plain = 1.0;
  ScaledDouble scaled = ScaledDouble::One();
  for (double v : values) {
    plain *= v;
    scaled *= ScaledDouble::FromDouble(v);
    EXPECT_EQ(scaled.ToDouble(), plain);  // exact equality, not tolerance
  }
}

TEST(ScaledDoubleTest, AdditionMatchesDoubleBitForBit) {
  const double a_values[] = {1e-3, 1.0, 3.5e10, 1e-300, 0.1};
  const double b_values[] = {2e-3, 1e-17, 7.0, 2e-300, 0.2};
  for (double a : a_values) {
    for (double b : b_values) {
      const ScaledDouble s =
          ScaledDouble::FromDouble(a) + ScaledDouble::FromDouble(b);
      EXPECT_EQ(s.ToDouble(), a + b) << a << " + " << b;
    }
  }
}

TEST(ScaledDoubleTest, AdditionDropsNegligibleAddendLikeDouble) {
  // Gap of >= 64 binary orders: plain double rounds the small addend away;
  // ScaledDouble must agree.
  const double big = 1.0, small = 1e-30;
  EXPECT_EQ((ScaledDouble::FromDouble(big) + ScaledDouble::FromDouble(small))
                .ToDouble(),
            big + small);
  EXPECT_EQ(big + small, big);
}

TEST(ScaledDoubleTest, SurvivesDeepUnderflowAndRecovers) {
  // 2000 multiplications by 1e-3: far below double's reach (~1e-6000).
  ScaledDouble product = ScaledDouble::One();
  const ScaledDouble w = ScaledDouble::FromDouble(1e-3);
  for (int i = 0; i < 2000; ++i) product *= w;
  EXPECT_FALSE(product.IsZero());
  EXPECT_FALSE(product.FitsDouble());
  EXPECT_EQ(product.ToDouble(), 0.0);  // saturating conversion
  EXPECT_NEAR(product.Log2Abs(), 2000 * std::log2(1e-3), 1e-6);
  // Multiplying the inverse chain back recovers 1.0 to double precision.
  const ScaledDouble inv = ScaledDouble::FromDouble(1e3);
  for (int i = 0; i < 2000; ++i) product *= inv;
  EXPECT_TRUE(product.FitsDouble());
  EXPECT_NEAR(product.ToDouble(), 1.0, 1e-10);
}

TEST(ScaledDoubleTest, SurvivesOverflowSymmetrically) {
  ScaledDouble product = ScaledDouble::One();
  const ScaledDouble w = ScaledDouble::FromDouble(1e6);
  for (int i = 0; i < 100; ++i) product *= w;  // 1e600: above DBL_MAX
  EXPECT_FALSE(product.FitsDouble());
  EXPECT_TRUE(std::isinf(product.ToDouble()));
  EXPECT_NEAR(product.Log2Abs(), 600 * std::log2(10.0), 1e-6);
}

TEST(ScaledDoubleTest, ZeroAndSignHandling) {
  const ScaledDouble z = ScaledDouble::Zero();
  const ScaledDouble x = ScaledDouble::FromDouble(-2.5);
  EXPECT_TRUE((z * x).IsZero());
  EXPECT_EQ((z + x).ToDouble(), -2.5);
  EXPECT_EQ((x + z).ToDouble(), -2.5);
  EXPECT_EQ((x * x).ToDouble(), 6.25);
  // Exact cancellation collapses to a clean zero.
  const ScaledDouble y = ScaledDouble::FromDouble(2.5);
  EXPECT_TRUE((x + y).IsZero());
}

}  // namespace
}  // namespace tbc
