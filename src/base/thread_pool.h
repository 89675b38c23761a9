#ifndef TBC_BASE_THREAD_POOL_H_
#define TBC_BASE_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "base/guard.h"
#include "base/observability.h"
#include "base/result.h"

namespace tbc {

/// A small work-stealing-free thread pool for the levelized circuit
/// kernels (DESIGN.md "Kernel layer").
///
/// The parallelism the library needs is flat: per-level node batches of a
/// levelized circuit pass, and embarrassingly-parallel outer loops
/// (multi-evidence MAR, per-instance PSDD likelihoods, portfolio arms).
/// Both are served by one primitive, ParallelFor: a half-open index range
/// is split into fixed chunks, workers *and the calling thread* claim
/// chunks off a single atomic counter, and the call returns when every
/// index has been processed. There are no per-worker deques to steal from,
/// so scheduling adds one atomic fetch per chunk and nothing else.
///
/// Determinism contract: ParallelFor imposes no order, so callers must
/// write result i to slot i (never accumulate across indices inside the
/// loop) and perform reductions serially afterwards in index order. Under
/// that discipline serial and parallel runs are bit-identical for both
/// bigint and double results — asserted by parallel_eval_test at 1/2/8
/// threads.
///
/// Cancellation: an optional Guard is polled once per claimed chunk. When
/// it trips, workers stop claiming chunks (in-flight chunks finish) and
/// ParallelFor returns the guard's typed status. All Guard methods are
/// thread-safe, so this is TSan-clean (guard_cancel_race_test).
///
/// Exceptions: if `fn` throws for some index, the exception is captured on
/// the worker (never escapes into WorkerLoop, which would terminate),
/// chunks that can no longer win the first-error race are skipped, and
/// ParallelFor rethrows after all in-flight chunks retire. When several
/// shards throw, the one from the lowest chunk index wins, and that choice
/// is deterministic: a chunk is only skipped when its index is above an
/// already-recorded thrower, so every chunk below the eventual winner runs
/// its body in full — the winner is the chunk a serial run would have
/// faulted on. A rethrown exception takes precedence over a concurrently
/// tripped Guard.
class ThreadPool {
 public:
  /// A pool with `num_threads` total execution lanes: `num_threads - 1`
  /// background workers plus the calling thread, which always participates
  /// in ParallelFor. ThreadPool(1) therefore runs everything inline on the
  /// caller with zero thread handoff.
  explicit ThreadPool(size_t num_threads)
      : lanes_(num_threads == 0 ? 1 : num_threads) {
    workers_.reserve(lanes_ - 1);
    for (size_t i = 0; i + 1 < lanes_; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    cv_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes (workers + caller).
  size_t num_threads() const { return lanes_; }

  /// Applies `fn(i)` to every i in [begin, end), distributing chunks of
  /// `grain` consecutive indices over the workers and the calling thread.
  /// Returns Ok when all indices ran, or the guard's status if it tripped
  /// (some indices then never ran — the caller must discard the batch).
  /// Must not be called from inside another ParallelFor body.
  Status ParallelFor(size_t begin, size_t end, size_t grain,
                     const std::function<void(size_t)>& fn,
                     Guard* guard = nullptr) {
    TBC_COUNT("pool.parallel_for.calls");
    if (begin >= end) return guard ? guard->Check() : Status::Ok();
    if (grain == 0) grain = 1;
    const size_t n = end - begin;
    const size_t num_chunks = (n + grain - 1) / grain;
    // Small ranges or a single lane: run inline, no synchronization.
    // Exceptions propagate to the caller directly, which trivially
    // satisfies the first-error contract (execution is sequential).
    if (lanes_ == 1 || num_chunks == 1) {
      for (size_t i = begin; i < end; ++i) {
        if (guard != nullptr && (i - begin) % grain == 0) {
          Status s = guard->Poll();
          if (!s.ok()) {
            TBC_COUNT("pool.parallel_for.cancelled");
            return s;
          }
        }
        fn(i);
      }
      return Status::Ok();
    }

    Batch batch;
    batch.begin = begin;
    batch.end = end;
    batch.grain = grain;
    batch.fn = &fn;
    batch.guard = guard;
    batch.next_chunk.store(0, std::memory_order_relaxed);
    batch.pending.store(static_cast<int64_t>(num_chunks),
                        std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      batch_ = &batch;
      ++batch_epoch_;
    }
    cv_.notify_all();

    RunChunks(batch);  // caller participates

    // Wait until every chunk retired AND no worker is still inside
    // RunChunks — `batch` lives on this stack frame, so a worker holding
    // its pointer past this point would be a use-after-free.
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this, &batch] {
      return batch.pending.load(std::memory_order_acquire) <= 0 &&
             active_workers_ == 0;
    });
    batch_ = nullptr;
    lock.unlock();
    // A shard exception outranks a tripped guard: the guard may have been
    // cancelled *because* of the failure (sibling-arm teardown), and
    // reporting the cancellation would hide the root cause.
    if (batch.failed.load(std::memory_order_acquire)) {
      TBC_COUNT("pool.parallel_for.exceptions");
      std::rethrow_exception(batch.error);
    }
    if (guard != nullptr) {
      Status s = guard->Check();
      if (!s.ok()) {
        TBC_COUNT("pool.parallel_for.cancelled");
        return s;
      }
    }
    return Status::Ok();
  }

  /// A process-wide pool sized from TBC_NUM_THREADS (default: hardware
  /// concurrency). Constructed on first use.
  static ThreadPool& Shared() {
    static ThreadPool pool(DefaultThreadCount());
    return pool;
  }

  /// TBC_NUM_THREADS if set and positive, else hardware concurrency.
  static size_t DefaultThreadCount() {
    if (const char* env = std::getenv("TBC_NUM_THREADS")) {
      const long n = std::strtol(env, nullptr, 10);
      if (n > 0) return static_cast<size_t>(n);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<size_t>(hw);
  }

 private:
  struct Batch {
    size_t begin = 0, end = 0, grain = 1;
    const std::function<void(size_t)>* fn = nullptr;
    Guard* guard = nullptr;
    std::atomic<size_t> next_chunk{0};
    // Chunks not yet fully executed; the last finisher signals done_cv_.
    std::atomic<int64_t> pending{0};
    // First-error capture: the exception kept is the one from the lowest
    // chunk index. `err_chunk` is also read lock-free on the claim path so
    // chunks below a known thrower still run — one of them may fault at an
    // even lower index and must win.
    std::atomic<bool> failed{false};
    std::atomic<size_t> err_chunk{SIZE_MAX};
    std::mutex err_mu;
    std::exception_ptr error;  // guarded by err_mu until the final wait
  };

  void RunChunks(Batch& batch) {
    const size_t num_chunks =
        (batch.end - batch.begin + batch.grain - 1) / batch.grain;
    while (true) {
      const size_t chunk =
          batch.next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= num_chunks) break;
      bool skip = false;
      if (batch.failed.load(std::memory_order_acquire)) {
        // Skip only chunks above the recorded thrower: they can no longer
        // win the first-error race. A chunk below it may itself fault at a
        // lower index — exactly the exception a serial run would surface —
        // so its body must still run.
        skip = chunk > batch.err_chunk.load(std::memory_order_acquire);
      }
      if (!skip && batch.guard != nullptr && !batch.guard->Poll().ok()) {
        skip = true;  // skip the body; still retire the chunk
      }
      if (!skip) {
        const size_t lo = batch.begin + chunk * batch.grain;
        const size_t hi = std::min(batch.end, lo + batch.grain);
        try {
          for (size_t i = lo; i < hi; ++i) (*batch.fn)(i);
        } catch (...) {
          // Keep the exception from the lowest chunk — the same one a
          // serial run would have surfaced, since chunks at or below the
          // current record are never skipped.
          std::lock_guard<std::mutex> lock(batch.err_mu);
          if (chunk < batch.err_chunk.load(std::memory_order_relaxed)) {
            batch.error = std::current_exception();
            batch.err_chunk.store(chunk, std::memory_order_release);
          }
          batch.failed.store(true, std::memory_order_release);
        }
      }
      if (batch.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(mu_);
        done_cv_.notify_all();
      }
    }
  }

  void WorkerLoop() {
    uint64_t seen_epoch = 0;
    while (true) {
      Batch* batch = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this, seen_epoch] {
          return shutdown_ || (batch_ != nullptr && batch_epoch_ != seen_epoch);
        });
        if (shutdown_) return;
        batch = batch_;
        seen_epoch = batch_epoch_;
        ++active_workers_;
      }
      RunChunks(*batch);
      {
        std::lock_guard<std::mutex> lock(mu_);
        --active_workers_;
      }
      done_cv_.notify_all();
    }
  }

  const size_t lanes_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  Batch* batch_ = nullptr;  // guarded by mu_
  uint64_t batch_epoch_ = 0;
  size_t active_workers_ = 0;  // workers currently inside RunChunks
  bool shutdown_ = false;
};

/// Runs body(i) for i in [begin, end): over the pool's lanes when a pool
/// with more than one lane is given and the range spans more than one
/// `grain`, inline on the caller otherwise. Either way the guard is polled
/// once per `grain` indices and a trip returns its typed status (some
/// indices then never ran). The inline path calls `body` directly, with no
/// std::function in between, so a serial kernel pays nothing for being
/// poolable. `grain` must be positive.
template <typename Body>
Status ForRange(ThreadPool* pool, Guard& guard, size_t begin, size_t end,
                size_t grain, Body&& body) {
  if (pool != nullptr && pool->num_threads() > 1 && end - begin > grain) {
    return pool->ParallelFor(begin, end, grain, body, &guard);
  }
  for (size_t i = begin; i < end; i += grain) {
    TBC_RETURN_IF_ERROR(guard.Poll());
    const size_t stop = std::min(end, i + grain);
    for (size_t j = i; j < stop; ++j) body(j);
  }
  return Status::Ok();
}

}  // namespace tbc

#endif  // TBC_BASE_THREAD_POOL_H_
