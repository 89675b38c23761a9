#ifndef TBC_BASE_BIGINT_H_
#define TBC_BASE_BIGINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/span.h"

namespace tbc {

/// Arbitrary-precision unsigned integer.
///
/// Model counts routinely exceed 2^64 (e.g. counting the models of a circuit
/// over hundreds of variables, or the 2^n instances of a compiled classifier),
/// so all exact counting queries in the library return BigUint. Only the
/// operations counting needs are provided: +, *, shifted add, comparison,
/// and conversion to decimal string / double. Most counts still fit one
/// limb, so a value below 2^64 is held inline and its arithmetic, inline
/// here, never allocates; only larger values keep a limb vector.
class BigUint {
 public:
  /// Zero.
  BigUint() = default;
  /// From a machine word.
  BigUint(uint64_t value)  // NOLINT(google-explicit-constructor): numeric.
      : small_(value) {}

  /// 2^k.
  static BigUint PowerOfTwo(unsigned k);

  BigUint& operator+=(const BigUint& other) {
    uint64_t sum;
    if (limbs_.empty() && other.limbs_.empty() &&
        !__builtin_add_overflow(small_, other.small_, &sum)) {
      small_ = sum;
      return *this;
    }
    return AddWide(other);
  }
  /// *this += x · 2^k, with no temporary and no multiplication; k = 0 is
  /// a plain sum. `x` must not be *this.
  BigUint& AddShifted(const BigUint& x, unsigned k) {
    if (x.IsZero()) return *this;
    // x·2^k fits iff k < 64 and x < 2^(64-k); shifting by 63-k then 1
    // covers k == 0.
    uint64_t sum;
    if (limbs_.empty() && x.limbs_.empty() && k < 64 &&
        (x.small_ >> (63 - k)) >> 1 == 0 &&
        !__builtin_add_overflow(small_, x.small_ << k, &sum)) {
      small_ = sum;
      return *this;
    }
    return AddShiftedWide(x, k);
  }
  BigUint& operator*=(const BigUint& other) {
    uint64_t product;
    if (limbs_.empty() && other.limbs_.empty() &&
        !__builtin_mul_overflow(small_, other.small_, &product)) {
      small_ = product;
      return *this;
    }
    return MulWide(other);
  }
  friend BigUint operator+(BigUint a, const BigUint& b) { return a += b; }
  friend BigUint operator*(BigUint a, const BigUint& b) { return a *= b; }

  /// Subtraction; requires *this >= other.
  BigUint& operator-=(const BigUint& other);
  friend BigUint operator-(BigUint a, const BigUint& b) { return a -= b; }

  friend bool operator==(const BigUint& a, const BigUint& b) {
    return a.small_ == b.small_ && a.limbs_ == b.limbs_;
  }
  friend bool operator!=(const BigUint& a, const BigUint& b) {
    return !(a == b);
  }
  friend bool operator<(const BigUint& a, const BigUint& b) {
    return Compare(a, b) < 0;
  }
  friend bool operator>(const BigUint& a, const BigUint& b) {
    return Compare(a, b) > 0;
  }
  friend bool operator<=(const BigUint& a, const BigUint& b) {
    return Compare(a, b) <= 0;
  }
  friend bool operator>=(const BigUint& a, const BigUint& b) {
    return Compare(a, b) >= 0;
  }

  bool IsZero() const { return small_ == 0 && limbs_.empty(); }

  /// -1 / 0 / +1 as a < b, a == b, a > b.
  static int Compare(const BigUint& a, const BigUint& b);

  /// Value as double (may lose precision; +inf if astronomically large).
  double ToDouble() const;

  /// Decimal representation.
  std::string ToString() const;

  /// Value as uint64_t; aborts if it does not fit.
  uint64_t ToU64() const;
  /// True iff the value fits in a uint64_t.
  bool FitsU64() const { return limbs_.empty(); }

  /// Canonical little-endian 64-bit limbs (empty for zero, no leading
  /// zero limb). Exposed for serialization (src/store/).
  std::vector<uint64_t> limbs() const { return View().ToVector(); }

  /// Reconstructs from little-endian limbs. Returns false (and leaves
  /// `out` untouched) if the representation is non-canonical (a leading
  /// zero limb) — deserializers treat that as malformed input rather
  /// than silently normalizing.
  static bool FromLimbs(std::vector<uint64_t> limbs, BigUint* out) {
    if (!limbs.empty() && limbs.back() == 0) return false;
    out->small_ = 0;
    out->limbs_ = std::move(limbs);
    out->Narrow();
    return true;
  }

 private:
  // The arithmetic past 2^64, on limb vectors.
  BigUint& AddWide(const BigUint& other);
  BigUint& AddShiftedWide(const BigUint& x, unsigned k);
  BigUint& MulWide(const BigUint& other);
  // Moves an inline value into limbs_, for the limb loops.
  void Widen();
  // Drops leading zero limbs; a value that then fits one limb moves back
  // inline.
  void Narrow();
  // The value's canonical limbs, without allocating for an inline value.
  Span<const uint64_t> View() const {
    return limbs_.empty() ? Span<const uint64_t>(&small_, small_ != 0 ? 1 : 0)
                          : Span<const uint64_t>(limbs_);
  }

  // A value below 2^64 is small_ with limbs_ empty. A larger one is limbs_,
  // little-endian 64-bit limbs (at least two, no leading zero limb), with
  // small_ zero.
  uint64_t small_ = 0;
  std::vector<uint64_t> limbs_;
};

}  // namespace tbc

#endif  // TBC_BASE_BIGINT_H_
