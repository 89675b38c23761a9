#ifndef TBC_BASE_BIGINT_H_
#define TBC_BASE_BIGINT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace tbc {

/// Arbitrary-precision unsigned integer.
///
/// Model counts routinely exceed 2^64 (e.g. counting the models of a circuit
/// over hundreds of variables, or the 2^n instances of a compiled classifier),
/// so all exact counting queries in the library return BigUint. Only the
/// operations counting needs are provided: +, *, shifted add, comparison,
/// and conversion to decimal string / double.
class BigUint {
 public:
  /// Zero.
  BigUint() = default;
  /// From a machine word.
  BigUint(uint64_t value);  // NOLINT(google-explicit-constructor): numeric.

  /// 2^k.
  static BigUint PowerOfTwo(unsigned k);

  BigUint& operator+=(const BigUint& other);
  /// *this += x · 2^k, with no temporary and no multiplication; k = 0 is
  /// a plain sum. `x` must not be *this.
  BigUint& AddShifted(const BigUint& x, unsigned k);
  BigUint& operator*=(const BigUint& other);
  friend BigUint operator+(BigUint a, const BigUint& b) { return a += b; }
  friend BigUint operator*(BigUint a, const BigUint& b) { return a *= b; }

  /// Subtraction; requires *this >= other.
  BigUint& operator-=(const BigUint& other);
  friend BigUint operator-(BigUint a, const BigUint& b) { return a -= b; }

  friend bool operator==(const BigUint& a, const BigUint& b) {
    return a.limbs_ == b.limbs_;
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

  bool IsZero() const { return limbs_.empty(); }

  /// -1 / 0 / +1 as a < b, a == b, a > b.
  static int Compare(const BigUint& a, const BigUint& b);

  /// Value as double (may lose precision; +inf if astronomically large).
  double ToDouble() const;

  /// Decimal representation.
  std::string ToString() const;

  /// Value as uint64_t; aborts if it does not fit.
  uint64_t ToU64() const;
  /// True iff the value fits in a uint64_t.
  bool FitsU64() const { return limbs_.size() <= 1; }

  /// Canonical little-endian 64-bit limbs (empty for zero, no leading
  /// zero limb). Exposed for serialization (src/store/).
  const std::vector<uint64_t>& limbs() const { return limbs_; }

  /// Reconstructs from little-endian limbs. Returns false (and leaves
  /// `out` untouched) if the representation is non-canonical (a leading
  /// zero limb) — deserializers treat that as malformed input rather
  /// than silently normalizing.
  static bool FromLimbs(std::vector<uint64_t> limbs, BigUint* out) {
    if (!limbs.empty() && limbs.back() == 0) return false;
    out->limbs_ = std::move(limbs);
    return true;
  }

 private:
  void Trim();

  // Little-endian 64-bit limbs; empty means zero. No leading zero limb.
  std::vector<uint64_t> limbs_;
};

}  // namespace tbc

#endif  // TBC_BASE_BIGINT_H_
