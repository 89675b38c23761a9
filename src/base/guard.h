#ifndef TBC_BASE_GUARD_H_
#define TBC_BASE_GUARD_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "base/result.h"

namespace tbc {

/// A resource budget for one potentially-exponential operation. Zero means
/// unlimited for every field. Budgets are plain data: construct one, hand
/// it to a Guard, pass the Guard down the call tree.
struct Budget {
  /// Wall-clock limit in milliseconds.
  double timeout_ms = 0.0;
  /// Circuit-node limit (SDD/NNF/OBDD nodes created, or cache entries for
  /// the direct counters). A proxy for memory: every node type in the
  /// library costs O(100) bytes.
  uint64_t max_nodes = 0;
  /// CDCL conflict limit (SAT search effort).
  uint64_t max_conflicts = 0;
  /// Decision limit for the exhaustive (top-down) compilers.
  uint64_t max_decisions = 0;

  static Budget Unlimited() { return Budget{}; }
  static Budget TimeLimit(double ms) { return Budget{ms, 0, 0, 0}; }
  static Budget NodeLimit(uint64_t nodes) { return Budget{0.0, nodes, 0, 0}; }
};

/// Cooperative resource governor threaded through every worst-case
/// exponential path (CDCL search, d-DNNF/SDD compilation, model counting,
/// vtree search, brute-force XAI compilation).
///
/// A Guard combines a deadline computed at arm time, monotonic charge
/// counters, and a cancellation flag that may be flipped from any thread.
/// Workers call the Charge*/Check methods at the top of their inner loops;
/// a non-OK return must be propagated (typed, via Result<T>), never
/// swallowed. All methods are safe to call concurrently with Cancel().
///
/// Checking the clock on every charge would dominate tight loops, so
/// ChargeDecision/ChargeConflict only consult the deadline every
/// kCheckInterval charges; budgets and cancellation are exact.
class Guard {
 public:
  /// An unlimited guard (never trips, cancellable).
  Guard() : Guard(Budget::Unlimited()) {}

  /// Arms the guard: the deadline clock starts now.
  explicit Guard(const Budget& budget)
      : budget_(budget),
        deadline_(budget.timeout_ms > 0.0
                      ? Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(budget.timeout_ms))
                      : Clock::time_point::max()) {}

  const Budget& budget() const { return budget_; }

  /// Requests cooperative cancellation; thread-safe, idempotent.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }

  /// Milliseconds until the deadline (infinity-ish when unlimited, clamped
  /// at 0 when already past). Used to derive sub-budgets for stages.
  double RemainingMs() const {
    if (deadline_ == Clock::time_point::max()) return kNoDeadlineMs;
    const double ms =
        std::chrono::duration<double, std::milli>(deadline_ - Clock::now()).count();
    return ms > 0.0 ? ms : 0.0;
  }
  bool has_deadline() const { return deadline_ != Clock::time_point::max(); }

  /// Full check: cancellation + deadline. Call at loop heads that run at
  /// most a few thousand times per second.
  Status Check() const {
    if (cancelled() || Clock::now() >= deadline_) return SlowCheck(Over::kTime);
    return Status::Ok();
  }

  /// Cheap cooperative poll for tight recursions that create no countable
  /// unit of work: exact cancellation check, deadline checked every
  /// kCheckInterval polls.
  Status Poll() { return AmortizedCheck(); }

  /// Charges `n` created nodes against max_nodes, plus an amortized
  /// deadline/cancellation check.
  Status ChargeNodes(uint64_t n = 1) {
    const uint64_t total = nodes_.fetch_add(n, std::memory_order_relaxed) + n;
    if (budget_.max_nodes != 0 && total > budget_.max_nodes) {
      return SlowCheck(Over::kNodes);
    }
    return AmortizedCheck();
  }

  /// Charges one CDCL conflict against max_conflicts.
  Status ChargeConflict() {
    const uint64_t total = conflicts_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (budget_.max_conflicts != 0 && total > budget_.max_conflicts) {
      return SlowCheck(Over::kConflicts);
    }
    return AmortizedCheck();
  }

  /// Charges one compiler decision against max_decisions.
  Status ChargeDecision() {
    const uint64_t total = decisions_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (budget_.max_decisions != 0 && total > budget_.max_decisions) {
      return SlowCheck(Over::kDecisions);
    }
    return AmortizedCheck();
  }

  /// Charge counters consumed so far (statistics / stage accounting).
  uint64_t nodes_charged() const { return nodes_.load(std::memory_order_relaxed); }
  uint64_t conflicts_charged() const {
    return conflicts_.load(std::memory_order_relaxed);
  }
  uint64_t decisions_charged() const {
    return decisions_.load(std::memory_order_relaxed);
  }

  /// A process-wide guard that never trips; the default for the unbounded
  /// legacy entry points.
  static Guard& Unlimited() {
    static Guard guard;
    return guard;
  }

 private:
  using Clock = std::chrono::steady_clock;
  static constexpr uint64_t kCheckInterval = 256;
  static constexpr double kNoDeadlineMs = 1e18;

  // Inline: the cancel test, the no-deadline test and the tick. The clock
  // read every kCheckInterval polls and any refusal are SlowCheck's.
  Status AmortizedCheck() {
    if (!cancelled()) {
      if (deadline_ == Clock::time_point::max()) return Status::Ok();
      if (tick_.fetch_add(1, std::memory_order_relaxed) % kCheckInterval != 0) {
        return Status::Ok();
      }
    }
    return SlowCheck(Over::kTime);
  }

  enum class Over : uint8_t { kTime, kNodes, kConflicts, kDecisions };
  // The cold half of every check, never inlined, so that the fast paths
  // stay a few instructions wherever the compiler inlines them. kTime: the
  // cancellation, then the deadline, else OK; the others: that budget's
  // refusal.
  [[gnu::cold, gnu::noinline]] Status SlowCheck(Over over) const {
    switch (over) {
      case Over::kTime:
        if (cancelled()) return Status::Cancelled("operation cancelled");
        if (Clock::now() < deadline_) return Status::Ok();
        return Status::DeadlineExceeded(
            "deadline of " + std::to_string(budget_.timeout_ms) + " ms exceeded");
      case Over::kNodes:
        return Status::BudgetExceeded(
            "node budget of " + std::to_string(budget_.max_nodes) + " exceeded");
      case Over::kConflicts:
        return Status::BudgetExceeded("conflict budget of " +
                                      std::to_string(budget_.max_conflicts) +
                                      " exceeded");
      case Over::kDecisions:
        return Status::BudgetExceeded("decision budget of " +
                                      std::to_string(budget_.max_decisions) +
                                      " exceeded");
    }
    return Status::Ok();
  }

  Budget budget_;
  Clock::time_point deadline_;
  std::atomic<bool> cancelled_{false};
  std::atomic<uint64_t> nodes_{0};
  std::atomic<uint64_t> conflicts_{0};
  std::atomic<uint64_t> decisions_{0};
  std::atomic<uint64_t> tick_{0};
};

/// The one guarded loop: runs body(i) for i in [begin, end) on the caller,
/// polling the guard once per `grain` indices. A trip returns the guard's
/// typed status, and the indices after it never run. `body` is called
/// directly, so the loop inlines into its kernel. `grain` must be positive.
template <typename Body>
Status ForRange(Guard& guard, size_t begin, size_t end, size_t grain,
                Body&& body) {
  for (size_t i = begin; i < end; i += grain) {
    TBC_RETURN_IF_ERROR(guard.Poll());
    const size_t stop = std::min(end, i + grain);
    for (size_t j = i; j < stop; ++j) body(j);
  }
  return Status::Ok();
}

}  // namespace tbc

#endif  // TBC_BASE_GUARD_H_
