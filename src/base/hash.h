#ifndef TBC_BASE_HASH_H_
#define TBC_BASE_HASH_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace tbc {

/// Mixes a new value into a running hash (boost-style combine with a
/// 64-bit golden-ratio constant).
inline size_t HashCombine(size_t seed, size_t value) {
  return seed ^ (value + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2));
}

/// Finalizer for integer keys (splitmix64 mix) — good avalanche behaviour
/// for pointer- and index-based hash table keys.
inline uint64_t HashU64(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// 128-bit content hash of a byte string (FNV-1a with two independent
/// offset bases, each splitmix-finalized). Used as the artifact-cache key
/// for compiled circuits: identical CNF text ⇒ identical key. Cache users
/// still compare the full text on a hit — the hash narrows, the bytes
/// decide — so a collision can never alias two different CNFs.
struct ContentHash {
  uint64_t lo = 0;
  uint64_t hi = 0;
  bool operator==(const ContentHash& o) const { return lo == o.lo && hi == o.hi; }
  bool operator!=(const ContentHash& o) const { return !(*this == o); }
};

inline ContentHash HashBytes(const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t a = 0xcbf29ce484222325ull;   // FNV-1a offset basis
  uint64_t b = 0x9ae16a3b2f90404full;   // independent basis
  for (size_t i = 0; i < n; ++i) {
    a = (a ^ p[i]) * 0x100000001b3ull;  // FNV prime
    b = (b ^ p[i]) * 0x00000100000001b3ull ^ (b >> 47);
  }
  return ContentHash{HashU64(a), HashU64(b ^ n)};
}

/// Fast 64-bit in-memory fingerprint of a byte string: 8-byte words fed
/// round-robin into four independent multiply-rotate lanes (so the
/// multiplies pipeline instead of forming one serial chain, as FNV's
/// byte loop in HashBytes does), the lanes then folded with the length
/// and splitmix-finalized. Reads words in native byte order, so its
/// values are for in-process indexes only — never persist or transmit
/// them. Users compare the full bytes on every match (ArtifactCache), so
/// the width only sets how often that comparison fails.
inline uint64_t FingerprintBytes(const void* data, size_t n) {
  constexpr uint64_t kMul = 0xc2b2ae3d27d4eb4full;
  constexpr uint64_t kPrime = 0x9e3779b185ebca87ull;
  const auto round = [](uint64_t acc, uint64_t word) {
    acc += word * kMul;
    acc = (acc << 31) | (acc >> 33);
    return acc * kPrime;
  };
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t lane[4] = {0x60ea27eeadc0b5d6ull, 0xc2b2ae3d27d4eb4full,
                      0x0000000000000001ull, 0x61c8864e7a143579ull};
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    for (size_t k = 0; k < 4; ++k) {
      uint64_t word;
      std::memcpy(&word, p + i + 8 * k, sizeof word);
      lane[k] = round(lane[k], word);
    }
  }
  for (size_t k = 0; i < n; i += 8, ++k) {
    uint64_t word = 0;
    std::memcpy(&word, p + i, n - i < 8 ? n - i : 8);
    lane[k] = round(lane[k], word);
  }
  uint64_t h = HashU64(n);
  for (uint64_t l : lane) h = HashU64(h ^ l);
  return h;
}

}  // namespace tbc

#endif  // TBC_BASE_HASH_H_
