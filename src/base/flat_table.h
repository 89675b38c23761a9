#ifndef TBC_BASE_FLAT_TABLE_H_
#define TBC_BASE_FLAT_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/check.h"
#include "base/hash.h"
#include "base/observability.h"

namespace tbc {

/// Footprint accounting for the flat tables: slot-array bytes are reported
/// to the "base.flat_table.bytes" gauge (current + peak), giving every
/// compile/count run a peak-memory figure in `--stats` output. Heap owned
/// by the keys themselves (e.g. std::string cache keys) is not counted —
/// this is the container footprint, not a full allocator.
inline void AccountFlatTableBytes(int64_t delta) {
  if (delta == 0) return;
  static ObsGauge& gauge =
      Observability::Global().Gauge("base.flat_table.bytes");
  gauge.Add(delta);
}

/// Tracks the bytes a table has reported so far; the value-semantics
/// members make the accounting survive copies and moves of the owning
/// table (a copy re-reports its bytes, a move transfers them, destruction
/// releases them).
class TableFootprint {
 public:
  TableFootprint() = default;
  TableFootprint(const TableFootprint& o) { Set(o.bytes_); }
  TableFootprint& operator=(const TableFootprint& o) {
    Set(o.bytes_);
    return *this;
  }
  TableFootprint(TableFootprint&& o) noexcept { std::swap(bytes_, o.bytes_); }
  TableFootprint& operator=(TableFootprint&& o) noexcept {
    std::swap(bytes_, o.bytes_);
    return *this;
  }
  ~TableFootprint() { Set(0); }

  /// Reports the delta between the previous and new footprint.
  void Set(size_t bytes) {
    AccountFlatTableBytes(static_cast<int64_t>(bytes) -
                          static_cast<int64_t>(bytes_));
    bytes_ = bytes;
  }

 private:
  size_t bytes_ = 0;
};

/// Flat hash containers for the circuit kernels (DESIGN.md "Kernel layer").
///
/// The unique tables and apply caches of the SDD/OBDD/NNF managers and the
/// memo tables of the d-DNNF compiler and model counter are the innermost
/// loops of every query the library runs. `std::unordered_map` puts every
/// entry behind a heap allocation and a bucket pointer chase; the tables
/// here are open-addressing, power-of-two capacity, linear probing, with
/// all slots in one contiguous array:
///   - UniqueTable: hash-consing index (64-bit content hash -> node id)
///     with chained-equality resolution through a caller callback.
///     Erase shifts entries back, so no tombstones: probes stop at the
///     first empty slot.
///   - FlatMap<K, V>: exact open-addressing map with per-slot cached
///     hashes and reserve(); insert-only, so probes stop at the first
///     empty slot.
///   - LossyCache<K, V>: bounded direct-mapped cache (tagged slots,
///     overwrite-on-collision) for apply/op caches that must keep memory
///     flat under TBC budgets. Lookups may miss spuriously; callers
///     recompute, which is always sound for memoized canonical operations.

/// Default hashers for flat tables. Specialize HashValue for new key types.
inline uint64_t HashValue(uint64_t key) { return HashU64(key); }
inline uint64_t HashValue(uint32_t key) { return HashU64(key); }
inline uint64_t HashValue(const std::string& key) {
  // FNV-1a over the bytes, then a splitmix64 finalizer for avalanche.
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return HashU64(h);
}

/// Hash-consing index: maps 64-bit content hashes to 32-bit node ids.
/// Distinct nodes may share a content hash; `Find` resolves collisions by
/// invoking `eq(id)` on every candidate whose stored hash matches.
class UniqueTable {
 public:
  static constexpr uint32_t kNpos = static_cast<uint32_t>(-1);

  UniqueTable() { Rehash(kMinCapacity); }

  size_t size() const { return size_; }
  size_t capacity() const { return ids_.size(); }

  /// Pre-sizes the table for `n` entries (no-op if already large enough).
  void Reserve(size_t n) {
    size_t cap = kMinCapacity;
    while (cap * kMaxLoadNum < n * kMaxLoadDen) cap <<= 1;
    if (cap > ids_.size()) Rehash(cap);
  }

  /// First id whose stored hash equals `hash` and for which `eq(id)` holds;
  /// kNpos if absent.
  template <typename Eq>
  uint32_t Find(uint64_t hash, Eq&& eq) const {
    size_t i = hash & mask_;
    while (ids_[i] != kNpos) {
      if (hashes_[i] == hash && eq(ids_[i])) return ids_[i];
      i = (i + 1) & mask_;
    }
    return kNpos;
  }

  /// Inserts an id under `hash`. The caller guarantees the entry is not
  /// already present (the hash-consing discipline: Find first).
  void Insert(uint64_t hash, uint32_t id) {
    if ((size_ + 1) * kMaxLoadDen > ids_.size() * kMaxLoadNum) {
      Rehash(ids_.size() * 2);
    }
    size_t i = hash & mask_;
    while (ids_[i] != kNpos) i = (i + 1) & mask_;
    ids_[i] = id;
    hashes_[i] = hash;
    ++size_;
  }

  /// Removes the entry mapping `hash` to `id`; returns false when absent.
  /// Deletion is backward-shift (not tombstones): entries probing through
  /// the freed slot are moved into it, so the table keeps the "probes stop
  /// at the first empty slot" invariant that Find/Insert rely on. Needed by
  /// in-place SDD vtree edits, which re-home live nodes under new hashes.
  bool Erase(uint64_t hash, uint32_t id) {
    size_t i = hash & mask_;
    while (ids_[i] != kNpos) {
      if (hashes_[i] == hash && ids_[i] == id) {
        size_t hole = i;
        size_t j = (i + 1) & mask_;
        while (ids_[j] != kNpos) {
          // Shift j into the hole iff the hole lies on j's probe path,
          // i.e. cyclically between j's home slot and j.
          const size_t home = hashes_[j] & mask_;
          if (((j - home) & mask_) >= ((j - hole) & mask_)) {
            ids_[hole] = ids_[j];
            hashes_[hole] = hashes_[j];
            hole = j;
          }
          j = (j + 1) & mask_;
        }
        ids_[hole] = kNpos;
        --size_;
        return true;
      }
      i = (i + 1) & mask_;
    }
    return false;
  }

 private:
  static constexpr size_t kMinCapacity = 16;
  // Max load factor 7/8: linear probing stays short and the table is two
  // flat arrays, so memory per entry is still ~13.7 bytes at the bound.
  static constexpr size_t kMaxLoadNum = 7;
  static constexpr size_t kMaxLoadDen = 8;

  void Rehash(size_t new_capacity) {
    std::vector<uint64_t> old_hashes = std::move(hashes_);
    std::vector<uint32_t> old_ids = std::move(ids_);
    hashes_.assign(new_capacity, 0);
    ids_.assign(new_capacity, kNpos);
    mask_ = new_capacity - 1;
    footprint_.Set(new_capacity * (sizeof(uint64_t) + sizeof(uint32_t)));
    for (size_t i = 0; i < old_ids.size(); ++i) {
      if (old_ids[i] == kNpos) continue;
      size_t j = old_hashes[i] & mask_;
      while (ids_[j] != kNpos) j = (j + 1) & mask_;
      ids_[j] = old_ids[i];
      hashes_[j] = old_hashes[i];
    }
  }

  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> ids_;
  size_t mask_ = 0;
  size_t size_ = 0;
  TableFootprint footprint_;
};

/// Open-addressing map with power-of-two capacity and linear probing.
/// Slots cache the key's hash, so probing long keys (e.g. the compiler's
/// serialized-clauses cache keys) compares 8 bytes before touching the key.
/// No erase; reserve() kills rehash storms on known-size workloads.
template <typename K, typename V>
class FlatMap {
 public:
  FlatMap() { Rehash(kMinCapacity); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return slots_.size(); }

  void reserve(size_t n) {
    size_t cap = kMinCapacity;
    while (cap * kMaxLoadNum < n * kMaxLoadDen) cap <<= 1;
    if (cap > slots_.size()) Rehash(cap);
  }

  /// Pointer to the value for `key`, or nullptr if absent.
  V* Find(const K& key) {
    const size_t i = FindSlot(key, HashValue(key));
    return i == kNoSlot ? nullptr : &slots_[i].value;
  }
  const V* Find(const K& key) const {
    const size_t i = FindSlot(key, HashValue(key));
    return i == kNoSlot ? nullptr : &slots_[i].value;
  }

  /// Inserts or overwrites.
  void Insert(const K& key, V value) {
    const uint64_t hash = HashValue(key);
    const size_t found = FindSlot(key, hash);
    if (found != kNoSlot) {
      slots_[found].value = std::move(value);
      return;
    }
    MaybeGrow();
    const size_t i = InsertSlot(hash);
    slots_[i].key = key;
    slots_[i].value = std::move(value);
  }

  /// operator[]: default-constructs missing entries.
  V& operator[](const K& key) {
    const uint64_t hash = HashValue(key);
    const size_t found = FindSlot(key, hash);
    if (found != kNoSlot) return slots_[found].value;
    MaybeGrow();
    const size_t i = InsertSlot(hash);
    slots_[i].key = key;
    slots_[i].value = V();
    return slots_[i].value;
  }

 private:
  static constexpr size_t kMinCapacity = 16;
  static constexpr size_t kMaxLoadNum = 3;
  static constexpr size_t kMaxLoadDen = 4;
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);
  static constexpr uint8_t kEmpty = 0, kFull = 1;

  struct Slot {
    uint64_t hash = 0;
    K key{};
    V value{};
  };

  size_t FindSlot(const K& key, uint64_t hash) const {
    size_t i = hash & mask_;
    while (ctrl_[i] != kEmpty) {
      if (slots_[i].hash == hash && slots_[i].key == key) {
        return i;
      }
      i = (i + 1) & mask_;
    }
    return kNoSlot;
  }

  // Claims a slot for a key known to be absent.
  size_t InsertSlot(uint64_t hash) {
    size_t i = hash & mask_;
    while (ctrl_[i] == kFull) i = (i + 1) & mask_;
    ctrl_[i] = kFull;
    slots_[i].hash = hash;
    ++size_;
    return i;
  }

  void MaybeGrow() {
    if ((size_ + 1) * kMaxLoadDen > slots_.size() * kMaxLoadNum) {
      Rehash(slots_.size() * 2);
    }
  }

  void Rehash(size_t new_capacity) {
    std::vector<Slot> old_slots = std::move(slots_);
    std::vector<uint8_t> old_ctrl = std::move(ctrl_);
    slots_.assign(new_capacity, Slot());
    ctrl_.assign(new_capacity, kEmpty);
    mask_ = new_capacity - 1;
    footprint_.Set(new_capacity * (sizeof(Slot) + sizeof(uint8_t)));
    for (size_t i = 0; i < old_slots.size(); ++i) {
      if (old_ctrl[i] != kFull) continue;
      size_t j = old_slots[i].hash & mask_;
      while (ctrl_[j] == kFull) j = (j + 1) & mask_;
      ctrl_[j] = kFull;
      slots_[j] = std::move(old_slots[i]);
    }
  }

  std::vector<Slot> slots_;
  std::vector<uint8_t> ctrl_;
  size_t mask_ = 0;
  size_t size_ = 0;
  TableFootprint footprint_;
};

/// Bounded lossy cache: direct-mapped tagged slots, overwrite-on-collision.
///
/// The apply caches of the SDD and OBDD managers only affect *speed*: every
/// cached operation is canonical, so recomputing a lost entry returns the
/// identical node. Capping the cache keeps compilation memory flat under
/// TBC budgets where an exact memo table would grow with the (worst-case
/// exponential) number of distinct subproblems. The cache starts small and
/// doubles as it fills, up to `max_capacity` slots; past the cap, new
/// entries overwrite colliding ones.
template <typename K, typename V>
class LossyCache {
 public:
  explicit LossyCache(size_t max_capacity = kDefaultMaxCapacity)
      : max_capacity_(RoundUpPow2(max_capacity)) {
    Resize(std::min<size_t>(kMinCapacity, max_capacity_));
  }

  size_t capacity() const { return slots_.size(); }
  size_t size() const { return size_; }

  const V* Find(const K& key) const {
    const Slot& s = slots_[HashValue(key) & mask_];
    return (s.full && s.key == key) ? &s.value : nullptr;
  }

  void Insert(const K& key, V value) {
    if (size_ * 2 >= slots_.size() && slots_.size() < max_capacity_) {
      Resize(slots_.size() * 2);
    }
    Slot& s = slots_[HashValue(key) & mask_];
    if (!s.full) {
      s.full = true;
      ++size_;
    }
    s.key = key;
    s.value = std::move(value);
  }

  void Clear() {
    for (Slot& s : slots_) s = Slot();
    size_ = 0;
  }

 private:
  static constexpr size_t kMinCapacity = 1024;
  // 2^20 slots; at ~32 bytes per (OpKey, entry) slot this is a ~32 MB
  // ceiling per manager, independent of how long a compilation runs.
  // Deliberately no EraseIf/scan API: invalidation must be O(1) (see the
  // SDD op cache's edit epochs) — a full-capacity scan per event is the
  // kind of cost this cache exists to avoid.
  static constexpr size_t kDefaultMaxCapacity = size_t{1} << 20;

  struct Slot {
    K key{};
    V value{};
    bool full = false;
  };

  static size_t RoundUpPow2(size_t n) {
    size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  void Resize(size_t new_capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_capacity, Slot());
    mask_ = new_capacity - 1;
    size_ = 0;
    footprint_.Set(new_capacity * sizeof(Slot));
    for (Slot& s : old) {
      if (!s.full) continue;
      Slot& d = slots_[HashValue(s.key) & mask_];
      if (!d.full) ++size_;
      d = std::move(s);
      d.full = true;
    }
  }

  size_t max_capacity_;
  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
  TableFootprint footprint_;
};

}  // namespace tbc

#endif  // TBC_BASE_FLAT_TABLE_H_
