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
#include "nnf/properties.h"
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
/// artifact's manager single-threaded — varsets, level schedule, count
/// memo, smoothed root — and fills the counts, so queries on the shared
/// artifact are pure reads (see the Artifact doc comment). `known_count`
/// is the model count when the caller already has it (a store that embeds
/// one); otherwise it is computed under `guard`.
Status WarmArtifact(Artifact& artifact, const BigUint* known_count,
                    Guard& guard) {
  NnfManager& mgr = *artifact.mgr;
  mgr.VarSet(artifact.root);
  mgr.ScheduleCached(artifact.root);
  if (known_count != nullptr) {
    artifact.count = *known_count;
    mgr.StoreModelCount(artifact.root, artifact.num_vars, artifact.count);
  } else {
    TBC_ASSIGN_OR_RETURN(
        artifact.count,
        ModelCountBounded(mgr, artifact.root, artifact.num_vars, guard));
  }
  artifact.smooth_root = Smooth(mgr, artifact.root, artifact.num_vars);
  mgr.VarSet(artifact.smooth_root);
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
  // Unbounded, like the rest of warm start. The smoothed root is appended
  // to the overlay past the mapped range.
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
    auto slot = std::make_shared<Slot>();
    slot->artifact = std::move(artifact);
    slot->done = true;
    slot->last_use = ++use_clock_;
    slots_.emplace(slot->artifact->key, std::move(slot));
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

Result<std::shared_ptr<const Artifact>> ArtifactCache::GetOrCompile(
    const std::string& cnf_text, Guard& guard, bool* cache_hit,
    const Cnf* parsed) {
  if (cache_hit != nullptr) *cache_hit = false;
  const std::string key = KeyOf(cnf_text);

  std::shared_ptr<Slot> slot;
  bool owner = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = slots_.find(key);
    if (it == slots_.end()) {
      slot = std::make_shared<Slot>();
      slots_.emplace(key, slot);
      owner = true;
      TBC_COUNT("serve.cache.misses");
    } else {
      slot = it->second;
      if (!slot->done) TBC_COUNT("serve.cache.inflight_joins");
    }
    if (!owner) {
      // Join the in-flight compile (or read the finished slot), bounded by
      // this request's own deadline/cancellation.
      while (!slot->done) {
        const auto tick = std::chrono::milliseconds(20);
        done_cv_.wait_for(lock, tick);
        Status s = guard.Check();
        if (!s.ok()) return s;
      }
      if (slot->failed) return slot->error;
      if (slot->artifact->cnf_text != cnf_text) {
        // 128-bit hash collision: two different CNFs, one key. Degrade to
        // an uncached compile — never alias.
        TBC_COUNT("serve.cache.collisions");
        lock.unlock();
        return Build(cnf_text, guard, parsed);
      }
      slot->last_use = ++use_clock_;
      TBC_COUNT("serve.cache.hits");
      if (slot->artifact->from_store) TBC_COUNT("serve.store.hits");
      if (cache_hit != nullptr) *cache_hit = true;
      return slot->artifact;
    }
  }

  // This thread owns the compile; no lock held while it runs.
  auto built = Build(cnf_text, guard, parsed);
  {
    std::unique_lock<std::mutex> lock(mu_);
    slot->done = true;
    if (!built.ok()) {
      slot->failed = true;
      slot->error = built.status();
      // Not cached: the next request for this key retries the compile.
      slots_.erase(key);
    } else {
      slot->artifact = *built;
      slot->last_use = ++use_clock_;
      EvictIfOverCapacityLocked();
      if (TBC_FAULT_POINT("serve.cache.evict")) {
        TBC_COUNT("serve.faults.injected");
        TBC_COUNT("serve.cache.evictions");
        slots_.erase(key);  // in-flight holders keep their shared_ptr
      }
    }
  }
  done_cv_.notify_all();
  if (built.ok() && !store_dir_.empty()) Spill(**built);
  return built;
}

std::shared_ptr<const Artifact> ArtifactCache::Lookup(
    const std::string& cnf_text) {
  const std::string key = KeyOf(cnf_text);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(key);
  if (it == slots_.end() || !it->second->done || it->second->failed) {
    return nullptr;
  }
  if (it->second->artifact->cnf_text != cnf_text) return nullptr;  // collision
  it->second->last_use = ++use_clock_;
  return it->second->artifact;
}

size_t ArtifactCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [key, slot] : slots_) {
    if (slot->done && !slot->failed) ++n;
  }
  return n;
}

void ArtifactCache::EvictIfOverCapacityLocked() {
  while (true) {
    size_t done_count = 0;
    auto lru = slots_.end();
    for (auto it = slots_.begin(); it != slots_.end(); ++it) {
      if (!it->second->done || it->second->failed) continue;
      ++done_count;
      if (lru == slots_.end() || it->second->last_use < lru->second->last_use) {
        lru = it;
      }
    }
    if (done_count <= capacity_ || lru == slots_.end()) return;
    TBC_COUNT("serve.cache.evictions");
    slots_.erase(lru);
  }
}

}  // namespace tbc::serve
