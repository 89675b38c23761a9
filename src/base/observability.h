#ifndef TBC_BASE_OBSERVABILITY_H_
#define TBC_BASE_OBSERVABILITY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tbc {

/// Observability layer for the KC stack (DESIGN.md "Observability layer").
///
/// Three metric kinds plus trace spans, all behind one process-wide
/// thread-safe registry:
///   - ObsCounter:   monotonic event counter (decisions, cache hits, ...).
///   - ObsGauge:     up/down value with a monotonic high-water mark; used
///                   for live/peak memory accounting (flat-table bytes).
///   - ObsHistogram: log2-bucketed distribution of nonnegative integer
///                   samples (durations in microseconds, batch sizes).
///   - TraceSpan:    RAII hierarchical span; records duration into the
///                   histogram "span.<name>" and appends a bounded trace
///                   event (thread, depth, start, duration) for the sinks.
///
/// Overhead contract: instrumentation sites go through the TBC_COUNT /
/// TBC_OBSERVE_VALUE / TBC_GAUGE_ADD / TBC_SPAN macros below. Counters
/// and histograms are single relaxed atomic RMWs, and every macro caches
/// its registry lookup in a function-local static, so steady-state cost
/// is one atomic add per event with no locks. Hot loops keep plain local
/// counts and publish them once per run (TBC_COUNT_N).
///
/// Naming scheme: "<subsystem>.<object>.<event>", lowercase, dot-
/// separated, e.g. "sdd.apply.cache_hits", "counter.wmc.rescues",
/// "base.flat_table.bytes". Span names use the same convention without
/// the "span." prefix (the registry adds it for the histogram view).
/// Metric names passed to the macros must be string literals (they are
/// captured by reference once per call site).

/// Monotonic counter. All methods are thread-safe; Add is one relaxed
/// fetch_add.
class ObsCounter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Up/down gauge with a peak (high-water mark). The peak is maintained
/// with a CAS loop, so concurrent Add calls never lose a maximum.
class ObsGauge {
 public:
  void Add(int64_t delta) {
    const int64_t now = current_.fetch_add(delta, std::memory_order_relaxed) + delta;
    int64_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
    }
  }
  int64_t current() const { return current_.load(std::memory_order_relaxed); }
  int64_t peak() const { return peak_.load(std::memory_order_relaxed); }
  void Reset() {
    current_.store(0, std::memory_order_relaxed);
    peak_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> current_{0};
  std::atomic<int64_t> peak_{0};
};

/// Log2-bucketed histogram of nonnegative integer samples. Bucket i
/// counts samples whose highest set bit is i (bucket 0 additionally holds
/// the zeros), so quantiles are approximate within a factor of 2 — enough
/// to tell a 10µs query from a 10ms one without per-sample allocation.
class ObsHistogram {
 public:
  static constexpr size_t kNumBuckets = 64;

  void Observe(uint64_t v) {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    AtomicMax(max_, v);
    AtomicMin(min_, v);
    buckets_[BucketOf(v)].fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Smallest / largest sample seen (0 when empty).
  uint64_t min() const {
    const uint64_t m = min_.load(std::memory_order_relaxed);
    return m == ~0ull ? 0 : m;
  }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Upper bound of the bucket containing quantile q in [0, 1] (an
  /// approximation within 2x; exact for single-bucket histograms).
  uint64_t ApproxQuantile(double q) const;

  void Reset() {
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
    min_.store(~0ull, std::memory_order_relaxed);
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  }

 private:
  static size_t BucketOf(uint64_t v) {
    size_t b = 0;
    while (v > 1) {
      v >>= 1;
      ++b;
    }
    return b;
  }
  static void AtomicMax(std::atomic<uint64_t>& slot, uint64_t v) {
    uint64_t cur = slot.load(std::memory_order_relaxed);
    while (v > cur &&
           !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  static void AtomicMin(std::atomic<uint64_t>& slot, uint64_t v) {
    uint64_t cur = slot.load(std::memory_order_relaxed);
    while (v < cur &&
           !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
  std::atomic<uint64_t> min_{~0ull};
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
};

/// A completed trace span, as surfaced by the sinks.
struct SpanEvent {
  std::string name;
  uint32_t thread = 0;    // small per-process thread index, not the OS tid
  uint32_t depth = 0;     // nesting depth at the time the span was open
  uint64_t start_us = 0;  // microseconds since the registry's epoch
  uint64_t duration_us = 0;
};

/// Process-wide metric registry. Metric objects are created on first use
/// and live for the process lifetime, so references returned by
/// Counter/Gauge/Histogram stay valid across Reset() — call sites may
/// cache them (the macros do).
class Observability {
 public:
  /// The global registry (constructed on first use, thread-safe).
  static Observability& Global();

  /// Finds or creates the named metric. Thread-safe; O(log n) under a
  /// mutex, intended to be amortized away via call-site caching.
  ObsCounter& Counter(std::string_view name);
  ObsGauge& Gauge(std::string_view name);
  ObsHistogram& Histogram(std::string_view name);

  /// Point reads for programmatic consumers (bench harness, tests).
  /// Missing names read as zero.
  uint64_t CounterValue(std::string_view name) const;
  int64_t GaugeCurrent(std::string_view name) const;
  int64_t GaugePeak(std::string_view name) const;
  uint64_t HistogramCount(std::string_view name) const;
  uint64_t HistogramSum(std::string_view name) const;
  uint64_t HistogramMax(std::string_view name) const;

  /// Appends a completed span (called by TraceSpan; also usable directly).
  /// Events beyond the ring capacity are dropped and counted.
  void RecordSpan(std::string_view name, uint32_t thread, uint32_t depth,
                  uint64_t start_us, uint64_t duration_us);
  /// Completed spans in record order (bounded by kMaxSpanEvents).
  std::vector<SpanEvent> SpanEvents() const;
  uint64_t spans_dropped() const;

  /// Microseconds since the registry's construction (span timestamps).
  uint64_t NowMicros() const;
  /// Small dense index for the calling thread (stable per thread).
  static uint32_t ThreadIndex();

  /// Zeroes every metric and clears the span ring. Metric references stay
  /// valid. For tests and per-run CLI reporting.
  void Reset();

  /// Text sink: one line per metric, sorted by name.
  std::string RenderText() const;
  /// JSON sink: {"version":1, "counters":{...}, "gauges":{...},
  /// "histograms":{...}, "spans":[...], "spans_dropped":N}. The shape is
  /// pinned by tools/stats_schema.json and check_stats_schema.sh.
  std::string RenderJson() const;

  static constexpr size_t kMaxSpanEvents = 8192;

 private:
  Observability();
  struct Impl;
  Impl* impl_;  // intentionally leaked with the process-lifetime singleton
};

/// RAII trace span. Construction stamps the start and pushes one level of
/// per-thread nesting; destruction records the event and a duration
/// sample into histogram "span.<name>". The name must outlive the span
/// (string literals at every call site).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  uint64_t start_us_;
  uint32_t depth_;
};

}  // namespace tbc

// ---------------------------------------------------------------------------
// Instrumentation macros — the only interface hot paths should use.
// ---------------------------------------------------------------------------

#define TBC_OBS_CONCAT_INNER(a, b) a##b
#define TBC_OBS_CONCAT(a, b) TBC_OBS_CONCAT_INNER(a, b)

/// Increments counter `name` by n / by 1. `name` must be a string literal.
#define TBC_COUNT_N(name, n)                                          \
  do {                                                                \
    static ::tbc::ObsCounter& tbc_obs_counter_ =                      \
        ::tbc::Observability::Global().Counter(name);                 \
    tbc_obs_counter_.Add(n);                                          \
  } while (0)
#define TBC_COUNT(name) TBC_COUNT_N(name, 1)

/// Adds a sample to histogram `name`.
#define TBC_OBSERVE_VALUE(name, value)                                \
  do {                                                                \
    static ::tbc::ObsHistogram& tbc_obs_hist_ =                       \
        ::tbc::Observability::Global().Histogram(name);               \
    tbc_obs_hist_.Observe(static_cast<uint64_t>(value));              \
  } while (0)

/// Moves gauge `name` by a signed delta (current and peak both tracked).
#define TBC_GAUGE_ADD(name, delta)                                    \
  do {                                                                \
    static ::tbc::ObsGauge& tbc_obs_gauge_ =                          \
        ::tbc::Observability::Global().Gauge(name);                   \
    tbc_obs_gauge_.Add(static_cast<int64_t>(delta));                  \
  } while (0)

/// Opens a hierarchical trace span for the rest of the enclosing scope.
#define TBC_SPAN(name) \
  ::tbc::TraceSpan TBC_OBS_CONCAT(tbc_obs_span_, __LINE__)(name)

/// Dynamic-name variants for call sites whose metric name is computed at
/// runtime (e.g. per portfolio arm). Pays the registry lookup per call —
/// keep off hot paths.
#define TBC_COUNT_DYN(name) ::tbc::Observability::Global().Counter(name).Add(1)
#define TBC_OBSERVE_VALUE_DYN(name, value) \
  ::tbc::Observability::Global().Histogram(name).Observe( \
      static_cast<uint64_t>(value))

#endif  // TBC_BASE_OBSERVABILITY_H_
