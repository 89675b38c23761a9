#ifndef TBC_BASE_FAULT_H_
#define TBC_BASE_FAULT_H_

#include <atomic>
#include <cstdint>
#include <string_view>
#include <vector>

namespace tbc::fault {

/// Deterministic fault injection for the robustness tests (DESIGN.md
/// "Serving layer"). Production code marks *named injection points* with
/// TBC_FAULT_POINT("name"); the macro evaluates to true when the installed
/// FaultPlan decides that this hit of this point should fail, and the site
/// then simulates the corresponding failure (allocation refusal,
/// mid-compile cancel, truncated frame, forced cache eviction, ...).
///
/// Determinism contract: a plan is seeded, and the fire/no-fire decision
/// for the k-th hit of point p is a pure function of (seed, p, k) — so a
/// failing single-threaded run replays exactly from its seed. Under
/// concurrency the per-point hit order is scheduling-dependent, but the
/// *sequence* of decisions handed out per point is still seed-determined,
/// which is what the soak test needs (seeded churn, not a transcript).
///
/// Injection points are declared centrally in kPointNames below and looked
/// up once per site (function-local static). Declaring them centrally —
/// rather than registering on first execution — lets serve_fault_test
/// iterate every point even before any traffic has touched it, and turns a
/// typo at a call site into an immediate abort instead of a silently dead
/// fault hook.
///
/// Injection points are always compiled in: with no plan installed, the
/// cost is one atomic load per point hit.

/// Every injection point in the codebase. Append only; tests iterate this.
inline constexpr const char* kPointNames[] = {
    /// Admission: pretend the request queue is full -> kOverloaded refusal.
    "serve.queue.overload",
    /// Simulated allocation failure while staging a request -> kInternal.
    "serve.request.alloc",
    /// Sleep inside request execution (drain/soak pressure; no failure).
    "serve.request.delay",
    /// Cancel the request's Guard mid-compile -> kCancelled refusal.
    "serve.compile.cancel",
    /// Corrupt an inbound frame payload after read -> kInvalidInput.
    "serve.frame.garbage",
    /// Drop the connection mid-response (client sees a truncated frame).
    "serve.frame.truncate",
    /// Evict the artifact right after insert (in-flight queries must hold
    /// their shared_ptr across the eviction).
    "serve.cache.evict",
    /// Client-side: send a garbage magic instead of a request frame.
    "client.frame.garbage",
    /// Client-side: send only half the frame, then close the socket.
    "client.frame.truncate",
    /// Client-side: stall between the header and the payload bytes.
    "client.frame.slow",
};
inline constexpr size_t kNumPoints = sizeof(kPointNames) / sizeof(kPointNames[0]);

/// All declared injection point names, in declaration order.
std::vector<std::string_view> KnownPoints();

/// A seeded fault schedule. Immutable after installation; all decision
/// state (per-point hit counters) is atomic, so ShouldFire is safe from
/// any thread.
class FaultPlan {
 public:
  /// A plan that fires every point independently with `probability` per
  /// hit, decided by splitmix64 over (seed, point, hit index).
  explicit FaultPlan(uint64_t seed, double probability = 0.0);

  /// Per-point probability override (0 disables the point).
  void SetProbability(std::string_view point, double p);
  /// Fire exactly on the nth hit (1-based) of `point`, never otherwise.
  /// Overrides any probability for that point.
  void SetFireOnHit(std::string_view point, uint64_t nth);

  /// Decides the next hit of `point`. Thread-safe; advances the point's
  /// hit counter.
  bool ShouldFire(size_t point_index);

  uint64_t seed() const { return seed_; }
  /// Total decisions that came back "fire" (test assertions).
  uint64_t fired() const { return fired_.load(std::memory_order_relaxed); }

 private:
  struct PointState {
    std::atomic<uint64_t> hits{0};
    uint64_t threshold = 0;   // fire when mix < threshold (probability mode)
    uint64_t fire_on_hit = 0; // 1-based; 0 = probability mode
  };
  static size_t IndexOf(std::string_view point);

  uint64_t seed_;
  PointState points_[kNumPoints];
  std::atomic<uint64_t> fired_{0};
};

/// Installs `plan` as the process-wide plan for this scope. Plans must not
/// overlap in time from different threads (tests install one at a time);
/// installation itself is atomic so in-flight ShouldFire calls on server
/// threads are safe while the plan is being swapped.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(FaultPlan* plan);
  ~ScopedFaultPlan();
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;

 private:
  FaultPlan* previous_;
};

namespace internal {
extern std::atomic<FaultPlan*> g_plan;
/// Slow path of TBC_FAULT_POINT: resolves the point name (aborting on a
/// name that is not declared in kPointNames) and asks the current plan.
/// The cached index is atomic: concurrent first hits of one site may both
/// resolve it, racing only on identical values.
bool FireAt(std::string_view name, std::atomic<size_t>* cached_index);
}  // namespace internal

}  // namespace tbc::fault

/// True when the installed FaultPlan injects a failure at this site for
/// this hit. `name` must be a string literal declared in kPointNames.
#define TBC_FAULT_POINT(name)                                              \
  (::tbc::fault::internal::g_plan.load(std::memory_order_acquire) != nullptr && \
   ([]() -> bool {                                                         \
     static std::atomic<size_t> tbc_fault_index_{~size_t{0}};              \
     return ::tbc::fault::internal::FireAt(name, &tbc_fault_index_);       \
   }()))

#endif  // TBC_BASE_FAULT_H_
