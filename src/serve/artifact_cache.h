#ifndef TBC_SERVE_ARTIFACT_CACHE_H_
#define TBC_SERVE_ARTIFACT_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/bigint.h"
#include "base/guard.h"
#include "base/hash.h"
#include "base/result.h"
#include "nnf/nnf.h"

namespace tbc {
class Cnf;
}

namespace tbc::serve {

/// An immutable compiled circuit shared by concurrent queries.
///
/// Built once (single-threaded) by ArtifactCache::GetOrCompile, then only
/// read. Build() warms every lazily-populated manager cache — the
/// model-count memo, plus the root's gap plan with its level schedule
/// (NnfManager::GapPlanCached) — so the "warm single-threaded
/// before sharing" contract of NnfManager holds: WMC/MAR/MPE queries
/// perform no write to `mgr` and run concurrently on one artifact
/// data-race-free (asserted by the serve soak test under TSan).
struct Artifact {
  std::string cnf_text;   // exact bytes the key was hashed from
  std::string key;        // 32-hex content hash; names the store file
  std::unique_ptr<NnfManager> mgr;
  NnfId root = kInvalidNnf;
  size_t num_vars = 0;
  BigUint count;          // exact model count (warms the count memo)
  size_t nodes = 0;       // circuit nodes below root
  size_t edges = 0;       // circuit edges below root
  bool from_store = false;  // restored from the persistent store (not compiled)
};

/// Cache of compiled artifacts keyed by their exact CNF bytes: the
/// "compile once, answer unbounded linear-time queries" economics of the
/// paper, behind a server (ROADMAP "KC-as-a-service").
///
/// - Index: slots are bucketed by FingerprintOf(cnf_text), a 64-bit
///   in-memory fingerprint, and every slot holds its exact CNF bytes from
///   the moment it is created. A hit, a single-flight join and Lookup all
///   compare those bytes in full, so a fingerprint collision only
///   lengthens one bucket and never aliases two CNFs. A bucket holds at
///   most capacity + in-flight slots.
/// - The 128-bit content key (Artifact::key: the `artifact` response field
///   and the store file name) is computed once per compile, in Build, and
///   once per store restore; a hit never hashes the CNF with it.
/// - Single-flight: concurrent requests for one CNF join the in-flight
///   compile instead of compiling twice; joiners wait under their own
///   Guard deadline. A failed compile is not cached — joiners receive the
///   failure, the next request retries.
/// - Bounded: at most `capacity` artifacts, LRU-evicted. Evicted artifacts
///   stay alive for queries already holding the shared_ptr.
/// - The fault point "serve.cache.evict" force-evicts an artifact right
///   after insertion, exercising the eviction race deliberately.
/// - Optional persistence (`store_dir`): each successfully compiled
///   artifact is spilled to `store_dir/<key>.tbc` (src/store/ arena
///   format), and WarmStart() restores spilled artifacts on startup by
///   mmaping them — a restarted server answers previously compiled CNFs
///   with zero compile activity. Store files are untrusted input until
///   the store layer's checksums pass; files that fail validation are
///   skipped (counted), never served.
class ArtifactCache {
 public:
  explicit ArtifactCache(size_t capacity, std::string store_dir = {})
      : capacity_(capacity == 0 ? 1 : capacity),
        store_dir_(std::move(store_dir)) {}

  /// The artifact for `cnf_text`, compiling under `guard` on a miss.
  /// `cache_hit` (optional) reports whether a compiled artifact was reused
  /// (a single-flight join counts as a hit). `parsed` (optional) is the
  /// already-parsed form of exactly `cnf_text`, letting callers that
  /// parsed for admission control skip the second parse on the compile
  /// path; keys and hit checks still use the raw bytes. Typed errors:
  /// kInvalidInput (CNF rejected), the guard's refusal codes, kInternal
  /// (injected allocation failure).
  Result<std::shared_ptr<const Artifact>> GetOrCompile(
      const std::string& cnf_text, Guard& guard, bool* cache_hit,
      const Cnf* parsed = nullptr) {
    return GetOrCompile(cnf_text, FingerprintOf(cnf_text), guard, cache_hit,
                        parsed);
  }

  /// GetOrCompile with the index fingerprint supplied, for callers that
  /// look one CNF up more than once. Entries are matched on their full
  /// bytes, so any fingerprint is safe: one other than
  /// FingerprintOf(cnf_text) only files the CNF in another bucket.
  Result<std::shared_ptr<const Artifact>> GetOrCompile(
      const std::string& cnf_text, uint64_t fingerprint, Guard& guard,
      bool* cache_hit, const Cnf* parsed = nullptr);

  /// Peek: the completed artifact for `cnf_text` if one is cached, else
  /// nullptr. Never compiles, never blocks on an in-flight compile, but
  /// does refresh LRU recency. Used by admission control to let already-
  /// compiled CNFs bypass the width forecast (the compile cost the
  /// forecast prices has already been paid).
  std::shared_ptr<const Artifact> Lookup(std::string_view cnf_text) {
    return Lookup(cnf_text, FingerprintOf(cnf_text));
  }
  /// Lookup with the index fingerprint supplied (as for GetOrCompile).
  std::shared_ptr<const Artifact> Lookup(std::string_view cnf_text,
                                         uint64_t fingerprint);

  /// The index fingerprint of a CNF's bytes (FingerprintBytes). In-memory
  /// only: the store names files by Artifact::key.
  static uint64_t FingerprintOf(std::string_view cnf_text) {
    return FingerprintBytes(cnf_text.data(), cnf_text.size());
  }

  /// Number of cached (completed) artifacts.
  size_t size() const;

  /// Number of compiles this cache has started (one per miss; warm-start
  /// restores are not compiles). A plain atomic, so it counts with
  /// observability compiled out too.
  uint64_t compiles() const { return compiles_.load(std::memory_order_relaxed); }

  /// Builds an artifact without touching the cache (also the compile step
  /// of GetOrCompile). Exposed for tests and benchmarks.
  /// `parsed`, when non-null, must be the parse of exactly `cnf_text`.
  static Result<std::shared_ptr<const Artifact>> Build(
      const std::string& cnf_text, Guard& guard, const Cnf* parsed = nullptr);

  /// Restores previously spilled artifacts from `store_dir` (no-op when
  /// persistence is off). Returns the number restored (bounded by
  /// capacity; deterministic key order). Call once before serving —
  /// restore warms each mapped manager's caches single-threaded, same
  /// contract as Build().
  size_t WarmStart();

  /// The spill directory ("" = persistence off).
  const std::string& store_dir() const { return store_dir_; }

 private:
  struct Slot {
    Slot(std::string_view text, uint64_t fp)
        : cnf_text(text), fingerprint(fp) {}
    const std::string cnf_text;  // the exact bytes this slot answers for
    const uint64_t fingerprint;  // its bucket in slots_
    std::shared_ptr<const Artifact> artifact;  // set when done && !failed
    Status error;                              // set when done && failed
    bool done = false;
    bool failed = false;
    uint64_t last_use = 0;
  };

  /// The slots filed under one fingerprint, in insertion order.
  using Bucket = std::vector<std::shared_ptr<Slot>>;

  /// The slot (done or in flight) whose bytes are exactly `cnf_text`, in
  /// the bucket of `fingerprint`; nullptr if none. Caller holds mu_.
  std::shared_ptr<Slot> FindLocked(std::string_view cnf_text,
                                   uint64_t fingerprint) const;
  /// Files `slot` under its fingerprint. Caller holds mu_.
  void InsertLocked(std::shared_ptr<Slot> slot);
  /// Drops `slot` from the index if it is still there. Caller holds mu_.
  void EraseLocked(const Slot* slot);
  void EvictIfOverCapacityLocked();
  /// Persists `artifact` under store_dir_/<key>.tbc (best-effort: spill
  /// failures are counted, not surfaced — the artifact still serves).
  void Spill(const Artifact& artifact) const;

  const size_t capacity_;
  const std::string store_dir_;
  mutable std::mutex mu_;
  std::condition_variable done_cv_;  // broadcast when any compile finishes
  uint64_t use_clock_ = 0;
  std::atomic<uint64_t> compiles_{0};
  std::unordered_map<uint64_t, Bucket> slots_;
};

}  // namespace tbc::serve

#endif  // TBC_SERVE_ARTIFACT_CACHE_H_
