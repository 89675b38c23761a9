// Unit tests for the flat open-addressing kernel tables: the hash-consing
// UniqueTable, the general insert-only FlatMap, and the bounded
// lossy apply cache. These structures back every manager's hot path, so the
// tests pin down the exact semantics the managers rely on — notably that
// FlatMap::Find pointers stay valid until the next mutation, and that
// LossyCache may forget entries but never returns a wrong value.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/flat_table.h"
#include "base/random.h"
#include "gtest/gtest.h"

namespace tbc {
namespace {

TEST(UniqueTableTest, InsertFindRoundTrip) {
  UniqueTable table;
  // Simulated node payloads: the table stores (hash, id); equality is
  // delegated to the caller's predicate, as the managers do.
  std::vector<uint64_t> payload;
  auto intern = [&](uint64_t value) -> uint32_t {
    const uint64_t h = HashU64(value);
    const uint32_t found =
        table.Find(h, [&](uint32_t id) { return payload[id] == value; });
    if (found != UniqueTable::kNpos) return found;
    payload.push_back(value);
    const uint32_t id = static_cast<uint32_t>(payload.size() - 1);
    table.Insert(h, id);
    return id;
  };

  const uint32_t a = intern(17);
  const uint32_t b = intern(42);
  EXPECT_NE(a, b);
  // Hash-consing: an equal payload maps to the existing id.
  EXPECT_EQ(intern(17), a);
  EXPECT_EQ(intern(42), b);
  EXPECT_EQ(table.size(), 2u);
}

TEST(UniqueTableTest, GrowthPreservesEntries) {
  UniqueTable table;
  std::vector<uint64_t> payload;
  const size_t kCount = 10000;  // forces several doublings past min capacity
  for (size_t i = 0; i < kCount; ++i) {
    payload.push_back(i * 2654435761u);
    table.Insert(HashU64(payload.back()), static_cast<uint32_t>(i));
  }
  EXPECT_EQ(table.size(), kCount);
  for (size_t i = 0; i < kCount; ++i) {
    const uint64_t value = payload[i];
    const uint32_t found = table.Find(
        HashU64(value), [&](uint32_t id) { return payload[id] == value; });
    EXPECT_EQ(found, static_cast<uint32_t>(i));
  }
}

TEST(UniqueTableTest, ReservePreemptsGrowth) {
  UniqueTable table;
  table.Reserve(5000);
  const size_t cap = table.capacity();
  for (uint32_t i = 0; i < 5000; ++i) table.Insert(HashU64(i), i);
  EXPECT_EQ(table.capacity(), cap) << "Reserve must preempt growth";
}

TEST(FlatMapTest, InsertFindOverwrite) {
  FlatMap<uint64_t, int> map;
  EXPECT_EQ(map.Find(7), nullptr);
  map.Insert(7, 70);
  map.Insert(9, 90);
  ASSERT_NE(map.Find(7), nullptr);
  EXPECT_EQ(*map.Find(7), 70);
  // Insert on an existing key overwrites in place.
  map.Insert(7, 71);
  EXPECT_EQ(*map.Find(7), 71);
  EXPECT_EQ(map.size(), 2u);
  map[9] = 91;  // operator[] returns a mutable slot
  EXPECT_EQ(*map.Find(9), 91);
}

TEST(FlatMapTest, StringKeysMatchUnorderedMapUnderChurn) {
  // Randomized differential test against std::unordered_map, mirroring the
  // compiler's serialized-clauses cache keys.
  FlatMap<std::string, uint32_t> map;
  std::unordered_map<std::string, uint32_t> reference;
  Rng rng(99);
  for (int step = 0; step < 20000; ++step) {
    const std::string key =
        std::string("k").append(std::to_string(rng.Below(700)));
    const uint32_t value = static_cast<uint32_t>(step);
    map.Insert(key, value);
    reference[key] = value;
  }
  EXPECT_EQ(map.size(), reference.size());
  for (const auto& [key, value] : reference) {
    ASSERT_NE(map.Find(key), nullptr) << key;
    EXPECT_EQ(*map.Find(key), value);
  }
}

TEST(FlatMapTest, ReservePreemptsGrowth) {
  FlatMap<uint32_t, uint32_t> map;
  map.reserve(1000);
  const size_t cap = map.capacity();
  for (uint32_t k = 0; k < 1000; ++k) map.Insert(k, k + 1);
  EXPECT_EQ(map.capacity(), cap);
}

TEST(LossyCacheTest, FindAfterInsert) {
  LossyCache<uint64_t, int> cache;
  EXPECT_EQ(cache.Find(5), nullptr);
  cache.Insert(5, 50);
  ASSERT_NE(cache.Find(5), nullptr);
  EXPECT_EQ(*cache.Find(5), 50);
}

TEST(LossyCacheTest, CollisionOverwritesOldEntry) {
  // A cache capped at its minimum capacity: inserting more distinct keys
  // than slots *must* evict, and a subsequent Find on an evicted key must
  // miss (never return another key's value).
  LossyCache<uint64_t, uint64_t> cache(/*max_capacity=*/1024);
  const uint64_t kKeys = 100000;
  for (uint64_t k = 0; k < kKeys; ++k) cache.Insert(k, k * 3);
  size_t hits = 0;
  for (uint64_t k = 0; k < kKeys; ++k) {
    if (const uint64_t* v = cache.Find(k)) {
      EXPECT_EQ(*v, k * 3) << "a hit must never be a stale/foreign value";
      ++hits;
    }
  }
  EXPECT_GT(hits, 0u);
  EXPECT_LE(hits, 1024u) << "bounded cache cannot retain more than capacity";
}

TEST(LossyCacheTest, SameKeyOverwriteUpdatesValue) {
  LossyCache<uint64_t, int> cache(1024);
  cache.Insert(11, 1);
  cache.Insert(11, 2);
  ASSERT_NE(cache.Find(11), nullptr);
  EXPECT_EQ(*cache.Find(11), 2);
}

TEST(LossyCacheTest, MemoryStaysBoundedUnderAdversarialLoad) {
  LossyCache<uint64_t, uint64_t> cache(/*max_capacity=*/4096);
  for (uint64_t k = 0; k < 1000000; ++k) cache.Insert(HashU64(k), k);
  EXPECT_LE(cache.capacity(), 4096u);
  cache.Clear();
  EXPECT_EQ(cache.Find(HashU64(999999)), nullptr);
}

TEST(HashValueTest, StringAndIntegerHashesSpread) {
  // Smoke check that the mixers actually spread consecutive keys: buckets
  // of the low bits should all be populated (this is what the
  // power-of-two tables rely on instead of a prime modulus).
  std::vector<int> buckets(16, 0);
  for (uint64_t i = 0; i < 1024; ++i) buckets[HashValue(i) & 15]++;
  for (int count : buckets) EXPECT_GT(count, 0);
  std::fill(buckets.begin(), buckets.end(), 0);
  for (int i = 0; i < 1024; ++i) {
    buckets[HashValue("key" + std::to_string(i)) & 15]++;
  }
  for (int count : buckets) EXPECT_GT(count, 0);
}

}  // namespace
}  // namespace tbc
