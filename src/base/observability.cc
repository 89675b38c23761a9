#include "base/observability.h"

#include <chrono>
#include <map>
#include <memory>
#include <mutex>

#include "base/strings.h"

namespace tbc {

namespace {

std::atomic<uint32_t> g_next_thread_index{0};

uint32_t ThisThreadIndex() {
  thread_local const uint32_t index =
      g_next_thread_index.fetch_add(1, std::memory_order_relaxed);
  return index;
}

thread_local uint32_t t_span_depth = 0;

}  // namespace

uint64_t ObsHistogram::ApproxQuantile(double q) const {
  const uint64_t n = count();
  if (n == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(n - 1));
  uint64_t seen = 0;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    seen += bucket(b);
    if (seen > rank) {
      // Upper bound of bucket b, clamped to the true max.
      const uint64_t hi = b >= 63 ? max() : (uint64_t{1} << (b + 1)) - 1;
      return hi < max() ? hi : max();
    }
  }
  return max();
}

struct Observability::Impl {
  mutable std::mutex mu;
  // std::map: stable element addresses and deterministic (sorted) render
  // order. transparent comparator for string_view lookups.
  std::map<std::string, std::unique_ptr<ObsCounter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<ObsGauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<ObsHistogram>, std::less<>> histograms;
  std::vector<SpanEvent> spans;
  uint64_t spans_dropped = 0;
  std::chrono::steady_clock::time_point epoch;
};

Observability::Observability() : impl_(new Impl) {
  impl_->epoch = std::chrono::steady_clock::now();
  impl_->spans.reserve(256);
}

Observability& Observability::Global() {
  // Leaked singleton: metrics may be touched from static destructors of
  // other TUs, so the registry must never be torn down.
  static Observability* const global = new Observability();
  return *global;
}

ObsCounter& Observability::Counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->counters.find(name);
  if (it == impl_->counters.end()) {
    it = impl_->counters
             .emplace(std::string(name), std::make_unique<ObsCounter>())
             .first;
  }
  return *it->second;
}

ObsGauge& Observability::Gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->gauges.find(name);
  if (it == impl_->gauges.end()) {
    it = impl_->gauges.emplace(std::string(name), std::make_unique<ObsGauge>())
             .first;
  }
  return *it->second;
}

ObsHistogram& Observability::Histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->histograms.find(name);
  if (it == impl_->histograms.end()) {
    it = impl_->histograms
             .emplace(std::string(name), std::make_unique<ObsHistogram>())
             .first;
  }
  return *it->second;
}

uint64_t Observability::CounterValue(std::string_view name) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto it = impl_->counters.find(name);
  return it == impl_->counters.end() ? 0 : it->second->value();
}

int64_t Observability::GaugeCurrent(std::string_view name) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto it = impl_->gauges.find(name);
  return it == impl_->gauges.end() ? 0 : it->second->current();
}

int64_t Observability::GaugePeak(std::string_view name) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto it = impl_->gauges.find(name);
  return it == impl_->gauges.end() ? 0 : it->second->peak();
}

uint64_t Observability::HistogramCount(std::string_view name) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto it = impl_->histograms.find(name);
  return it == impl_->histograms.end() ? 0 : it->second->count();
}

uint64_t Observability::HistogramSum(std::string_view name) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto it = impl_->histograms.find(name);
  return it == impl_->histograms.end() ? 0 : it->second->sum();
}

uint64_t Observability::HistogramMax(std::string_view name) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto it = impl_->histograms.find(name);
  return it == impl_->histograms.end() ? 0 : it->second->max();
}

void Observability::RecordSpan(std::string_view name, uint32_t thread,
                               uint32_t depth, uint64_t start_us,
                               uint64_t duration_us) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (impl_->spans.size() >= kMaxSpanEvents) {
    ++impl_->spans_dropped;
    return;
  }
  impl_->spans.push_back(
      SpanEvent{std::string(name), thread, depth, start_us, duration_us});
}

std::vector<SpanEvent> Observability::SpanEvents() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->spans;
}

uint64_t Observability::spans_dropped() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->spans_dropped;
}

uint64_t Observability::NowMicros() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - impl_->epoch)
          .count());
}

uint32_t Observability::ThreadIndex() { return ThisThreadIndex(); }

void Observability::Reset() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (auto& [name, c] : impl_->counters) c->Reset();
  for (auto& [name, g] : impl_->gauges) g->Reset();
  for (auto& [name, h] : impl_->histograms) h->Reset();
  impl_->spans.clear();
  impl_->spans_dropped = 0;
}

std::string Observability::RenderText() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::string out;
  out += "counters:\n";
  for (const auto& [name, c] : impl_->counters) {
    out += "  " + name + " = " + std::to_string(c->value()) + "\n";
  }
  out += "gauges:\n";
  for (const auto& [name, g] : impl_->gauges) {
    out += "  " + name + " current=" + std::to_string(g->current()) +
           " peak=" + std::to_string(g->peak()) + "\n";
  }
  out += "histograms:\n";
  for (const auto& [name, h] : impl_->histograms) {
    out += "  " + name + " count=" + std::to_string(h->count()) +
           " sum=" + std::to_string(h->sum()) +
           " min=" + std::to_string(h->min()) +
           " max=" + std::to_string(h->max()) +
           " p50~" + std::to_string(h->ApproxQuantile(0.5)) + "\n";
  }
  out += "spans: " + std::to_string(impl_->spans.size()) + " recorded, " +
         std::to_string(impl_->spans_dropped) + " dropped\n";
  for (const SpanEvent& s : impl_->spans) {
    out += "  [" + std::to_string(s.start_us) + "us] ";
    for (uint32_t d = 0; d < s.depth; ++d) out += "  ";
    out += s.name + " " + std::to_string(s.duration_us) + "us (thread " +
           std::to_string(s.thread) + ")\n";
  }
  return out;
}

std::string Observability::RenderJson() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::string out = "{\n  \"version\": 1,\n";
  // Instrumentation is always compiled in; the pinned schema keeps the key.
  out += "  \"observe_enabled\": true,\n";
  out += "  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : impl_->counters) {
    out += first ? "\n" : ",\n";
    out += "    \"" + JsonEscape(name) + "\": " + std::to_string(c->value());
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : impl_->gauges) {
    out += first ? "\n" : ",\n";
    out += "    \"" + JsonEscape(name) +
           "\": {\"current\": " + std::to_string(g->current()) +
           ", \"peak\": " + std::to_string(g->peak()) + "}";
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : impl_->histograms) {
    out += first ? "\n" : ",\n";
    out += "    \"" + JsonEscape(name) + "\": {\"count\": " +
           std::to_string(h->count()) + ", \"sum\": " + std::to_string(h->sum()) +
           ", \"min\": " + std::to_string(h->min()) +
           ", \"max\": " + std::to_string(h->max()) +
           ", \"p50\": " + std::to_string(h->ApproxQuantile(0.5)) +
           ", \"p90\": " + std::to_string(h->ApproxQuantile(0.9)) + "}";
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"spans\": [";
  first = true;
  for (const SpanEvent& s : impl_->spans) {
    out += first ? "\n" : ",\n";
    out += "    {\"name\": \"" + JsonEscape(s.name) +
           "\", \"thread\": " + std::to_string(s.thread) +
           ", \"depth\": " + std::to_string(s.depth) +
           ", \"start_us\": " + std::to_string(s.start_us) +
           ", \"dur_us\": " + std::to_string(s.duration_us) + "}";
    first = false;
  }
  out += first ? "],\n" : "\n  ],\n";
  out += "  \"spans_dropped\": " + std::to_string(impl_->spans_dropped) + "\n}\n";
  return out;
}

TraceSpan::TraceSpan(const char* name)
    : name_(name),
      start_us_(Observability::Global().NowMicros()),
      depth_(t_span_depth) {
  ++t_span_depth;
}

TraceSpan::~TraceSpan() {
  --t_span_depth;
  Observability& obs = Observability::Global();
  const uint64_t dur = obs.NowMicros() - start_us_;
  obs.RecordSpan(name_, ThisThreadIndex(), depth_, start_us_, dur);
  obs.Histogram(std::string("span.") + name_).Observe(dur);
}

}  // namespace tbc
