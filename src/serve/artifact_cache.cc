#include "serve/artifact_cache.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <vector>

#include "base/fault.h"
#include "base/hash.h"
#include "base/observability.h"
#include "compiler/ddnnf_compiler.h"
#include "logic/cnf.h"
#include "nnf/queries.h"
#include "store/store.h"

namespace tbc::serve {

namespace {

std::string KeyOf(const std::string& cnf_text) {
  const ContentHash h = HashBytes(cnf_text.data(), cnf_text.size());
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64 "%016" PRIx64, h.hi, h.lo);
  return buf;
}

/// Warms every lazily-written cache of a freshly built or restored
/// artifact's manager single-threaded — the count memo, then WarmQueries'
/// gap plan, smoothing memo and schedules — and fills the counts, so
/// queries on the shared artifact are pure reads (see the Artifact doc
/// comment). `known_count` is the model count when the caller already has
/// it (a store that embeds one); otherwise it is computed under `guard`.
Status WarmArtifact(Artifact& artifact, const BigUint* known_count,
                    Guard& guard) {
  NnfManager& mgr = *artifact.mgr;
  if (known_count != nullptr) {
    artifact.count = *known_count;
    mgr.StoreModelCount(artifact.root, artifact.num_vars, artifact.count);
  } else {
    TBC_ASSIGN_OR_RETURN(
        artifact.count,
        ModelCountBounded(mgr, artifact.root, artifact.num_vars, guard));
  }
  WarmQueries(mgr, artifact.root, artifact.num_vars);
  artifact.nodes = mgr.NumNodesBelow(artifact.root);
  artifact.edges = mgr.CircuitSize(artifact.root);
  return Status::Ok();
}

/// Restores one spilled artifact from a `.tbc` file. Returns nullptr (with
/// the reason counted) if the file fails store validation, lacks the
/// embedded CNF, or does not hash to its own filename key. Warms it with
/// the same WarmArtifact as Build(), so the restored artifact honours the
/// same share-after-warm contract.
std::shared_ptr<const Artifact> RestoreFromStore(const std::string& path,
                                                 const std::string& stem) {
  auto loaded = LoadCircuitStore(path);
  if (!loaded.ok()) {
    TBC_COUNT("serve.store.checksum_failures");
    return nullptr;
  }
  auto artifact = std::make_shared<Artifact>();
  artifact->cnf_text = std::string(loaded->store->cnf_text());
  artifact->key = KeyOf(artifact->cnf_text);
  if (artifact->cnf_text.empty() || artifact->key != stem) {
    // A valid store that is not the spill of the CNF its name claims —
    // renamed, truncated-and-rewritten, or foreign. Never serve it under
    // that key.
    TBC_COUNT("serve.store.key_mismatches");
    return nullptr;
  }
  artifact->root = loaded->root;
  artifact->num_vars = loaded->store->num_vars();
  artifact->from_store = true;
  artifact->mgr = std::move(loaded->mgr);
  const BigUint* stored_count = loaded->store->has_model_count()
                                    ? &loaded->store->model_count()
                                    : nullptr;
  // Unbounded, like the rest of warm start. The smoothed circuit is
  // appended to the overlay past the mapped range.
  if (!WarmArtifact(*artifact, stored_count, Guard::Unlimited()).ok()) {
    return nullptr;
  }
  TBC_COUNT("serve.store.restores");
  return artifact;
}

}  // namespace

void ArtifactCache::Spill(const Artifact& artifact) const {
  StoreWriteOptions options;
  options.cnf_text = artifact.cnf_text;
  options.model_count = &artifact.count;
  options.num_vars = artifact.num_vars;
  const std::string path = store_dir_ + "/" + artifact.key + ".tbc";
  const Status st =
      WriteCircuitStore(*artifact.mgr, artifact.root, path, options);
  if (!st.ok()) {
    // Best-effort: a full disk must not fail the request — the artifact
    // still serves from memory, it just will not survive a restart.
    TBC_COUNT("serve.store.spill_failures");
    return;
  }
  TBC_COUNT("serve.store.spills");
}

size_t ArtifactCache::WarmStart() {
  if (store_dir_.empty()) return 0;
  std::error_code ec;
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(store_dir_, ec)) {
    if (entry.path().extension() == ".tbc") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  size_t restored = 0;
  for (const auto& file : files) {
    if (restored >= capacity_) break;
    auto artifact = RestoreFromStore(file.string(), file.stem().string());
    if (artifact == nullptr) continue;
    std::lock_guard<std::mutex> lock(mu_);
    auto slot = std::make_shared<Slot>(artifact->cnf_text,
                                       FingerprintOf(artifact->cnf_text));
    slot->artifact = std::move(artifact);
    slot->done = true;
    slot->last_use = ++use_clock_;
    InsertLocked(std::move(slot));
    ++restored;
  }
  return restored;
}

Result<std::shared_ptr<const Artifact>> ArtifactCache::Build(
    const std::string& cnf_text, Guard& guard, const Cnf* parsed) {
  TBC_SPAN("serve.compile");
  if (TBC_FAULT_POINT("serve.request.alloc")) {
    TBC_COUNT("serve.faults.injected");
    return Status::Error(StatusCode::kInternal,
                         "injected allocation failure while staging compile");
  }
  std::optional<Cnf> owned;
  if (parsed == nullptr) {
    auto reparsed = Cnf::ParseDimacs(cnf_text);
    if (!reparsed.ok()) return reparsed.status();
    owned = std::move(reparsed).value();
  }
  const Cnf& cnf = parsed != nullptr ? *parsed : *owned;

  auto artifact = std::make_shared<Artifact>();
  artifact->cnf_text = cnf_text;
  artifact->key = KeyOf(cnf_text);
  artifact->mgr = std::make_unique<NnfManager>();
  artifact->num_vars = cnf.num_vars();

  if (TBC_FAULT_POINT("serve.compile.cancel")) {
    TBC_COUNT("serve.faults.injected");
    guard.Cancel();
  }
  DdnnfCompiler compiler;
  auto compiled = compiler.CompileBounded(cnf, *artifact->mgr, guard);
  if (!compiled.ok()) return compiled.status();
  artifact->root = *compiled;
  TBC_RETURN_IF_ERROR(WarmArtifact(*artifact, nullptr, guard));
  return std::shared_ptr<const Artifact>(std::move(artifact));
}

std::shared_ptr<ArtifactCache::Slot> ArtifactCache::FindLocked(
    std::string_view cnf_text, uint64_t fingerprint) const {
  const auto it = slots_.find(fingerprint);
  if (it == slots_.end()) return nullptr;
  for (const auto& slot : it->second) {
    if (slot->cnf_text == cnf_text) return slot;
  }
  return nullptr;
}

void ArtifactCache::InsertLocked(std::shared_ptr<Slot> slot) {
  const uint64_t fingerprint = slot->fingerprint;
  slots_[fingerprint].push_back(std::move(slot));
}

void ArtifactCache::EraseLocked(const Slot* slot) {
  const auto it = slots_.find(slot->fingerprint);
  if (it == slots_.end()) return;
  Bucket& bucket = it->second;
  for (auto s = bucket.begin(); s != bucket.end(); ++s) {
    if (s->get() != slot) continue;
    bucket.erase(s);
    if (bucket.empty()) slots_.erase(it);
    return;
  }
}

Result<std::shared_ptr<const Artifact>> ArtifactCache::GetOrCompile(
    const std::string& cnf_text, uint64_t fingerprint, Guard& guard,
    bool* cache_hit, const Cnf* parsed) {
  if (cache_hit != nullptr) *cache_hit = false;

  std::shared_ptr<Slot> slot;
  {
    std::unique_lock<std::mutex> lock(mu_);
    slot = FindLocked(cnf_text, fingerprint);
    if (slot == nullptr) {
      slot = std::make_shared<Slot>(cnf_text, fingerprint);
      InsertLocked(slot);
      TBC_COUNT("serve.cache.misses");
    } else {
      // The bytes already matched, so this slot is this CNF's: join its
      // in-flight compile (or read the finished slot), bounded by this
      // request's own deadline/cancellation.
      if (!slot->done) TBC_COUNT("serve.cache.inflight_joins");
      while (!slot->done) {
        const auto tick = std::chrono::milliseconds(20);
        done_cv_.wait_for(lock, tick);
        Status s = guard.Check();
        if (!s.ok()) return s;
      }
      if (slot->failed) return slot->error;
      slot->last_use = ++use_clock_;
      TBC_COUNT("serve.cache.hits");
      if (slot->artifact->from_store) TBC_COUNT("serve.store.hits");
      if (cache_hit != nullptr) *cache_hit = true;
      return slot->artifact;
    }
  }

  // This thread owns the compile; no lock held while it runs.
  compiles_.fetch_add(1, std::memory_order_relaxed);
  auto built = Build(cnf_text, guard, parsed);
  {
    std::unique_lock<std::mutex> lock(mu_);
    slot->done = true;
    if (!built.ok()) {
      slot->failed = true;
      slot->error = built.status();
      // Not cached: the next request for this CNF retries the compile.
      EraseLocked(slot.get());
    } else {
      slot->artifact = *built;
      slot->last_use = ++use_clock_;
      EvictIfOverCapacityLocked();
      if (TBC_FAULT_POINT("serve.cache.evict")) {
        TBC_COUNT("serve.faults.injected");
        TBC_COUNT("serve.cache.evictions");
        EraseLocked(slot.get());  // in-flight holders keep their shared_ptr
      }
    }
  }
  done_cv_.notify_all();
  if (built.ok() && !store_dir_.empty()) Spill(**built);
  return built;
}

std::shared_ptr<const Artifact> ArtifactCache::Lookup(
    std::string_view cnf_text, uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::shared_ptr<Slot> slot = FindLocked(cnf_text, fingerprint);
  if (slot == nullptr || !slot->done || slot->failed) return nullptr;
  slot->last_use = ++use_clock_;
  return slot->artifact;
}

size_t ArtifactCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [fingerprint, bucket] : slots_) {
    for (const auto& slot : bucket) {
      if (slot->done && !slot->failed) ++n;
    }
  }
  return n;
}

void ArtifactCache::EvictIfOverCapacityLocked() {
  while (true) {
    size_t done_count = 0;
    const Slot* lru = nullptr;
    for (const auto& [fingerprint, bucket] : slots_) {
      for (const auto& slot : bucket) {
        if (!slot->done || slot->failed) continue;
        ++done_count;
        if (lru == nullptr || slot->last_use < lru->last_use) lru = slot.get();
      }
    }
    if (done_count <= capacity_ || lru == nullptr) return;
    TBC_COUNT("serve.cache.evictions");
    EraseLocked(lru);
  }
}

}  // namespace tbc::serve
