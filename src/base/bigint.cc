#include "base/bigint.h"

#include <algorithm>
#include <cmath>

#include "base/check.h"

namespace tbc {

namespace {
// GCC/Clang extension, hidden behind __extension__ to stay -Wpedantic clean.
__extension__ typedef unsigned __int128 u128;
}  // namespace

BigUint BigUint::PowerOfTwo(unsigned k) {
  if (k < 64) return BigUint(1ull << k);
  BigUint r;
  r.limbs_.assign(k / 64 + 1, 0);
  r.limbs_.back() = 1ull << (k % 64);
  return r;
}

void BigUint::Widen() {
  if (limbs_.empty() && small_ != 0) limbs_.assign(1, small_);
  small_ = 0;
}

void BigUint::Narrow() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.size() <= 1) {
    small_ = limbs_.empty() ? 0 : limbs_[0];
    limbs_.clear();
  }
}

BigUint& BigUint::AddWide(const BigUint& other) {
  if (&other == this) return AddWide(BigUint(other));
  Widen();
  const Span<const uint64_t> y = other.View();
  const size_t n = std::max(limbs_.size(), y.size());
  limbs_.resize(n, 0);
  u128 carry = 0;
  for (size_t i = 0; i < n; ++i) {
    u128 sum = carry + limbs_[i];
    if (i < y.size()) sum += y[i];
    limbs_[i] = static_cast<uint64_t>(sum);
    carry = sum >> 64;
  }
  if (carry != 0) limbs_.push_back(static_cast<uint64_t>(carry));
  Narrow();
  return *this;
}

BigUint& BigUint::AddShiftedWide(const BigUint& x, unsigned k) {
  TBC_DCHECK(&x != this);
  if (k == 0) return AddWide(x);
  Widen();
  const Span<const uint64_t> y = x.View();
  const size_t word = k / 64;
  const unsigned bit = k % 64;
  // x · 2^k spans limbs [word, word + y.size() + 1); add it limb by limb.
  const size_t n = std::max(limbs_.size(), word + y.size() + 1);
  limbs_.resize(n, 0);
  u128 carry = 0;
  uint64_t spill = 0;  // x's bits shifted out of the previous limb
  for (size_t i = word; i < n; ++i) {
    const size_t j = i - word;
    uint64_t part = spill;
    if (j < y.size()) {
      part |= bit == 0 ? y[j] : y[j] << bit;
      spill = bit == 0 ? 0 : y[j] >> (64 - bit);
    } else {
      spill = 0;
    }
    const u128 sum = carry + limbs_[i] + part;
    limbs_[i] = static_cast<uint64_t>(sum);
    carry = sum >> 64;
    if (j >= y.size() && spill == 0 && carry == 0) break;
  }
  if (carry != 0) limbs_.push_back(static_cast<uint64_t>(carry));
  Narrow();
  return *this;
}

BigUint& BigUint::operator-=(const BigUint& other) {
  TBC_CHECK_MSG(*this >= other, "BigUint subtraction underflow");
  if (limbs_.empty()) {  // then other fits one limb too
    small_ -= other.small_;
    return *this;
  }
  const Span<const uint64_t> y = other.View();
  u128 borrow = 0;
  for (size_t i = 0; i < limbs_.size(); ++i) {
    u128 sub = borrow;
    if (i < y.size()) sub += y[i];
    if (static_cast<u128>(limbs_[i]) >= sub) {
      limbs_[i] = static_cast<uint64_t>(limbs_[i] - sub);
      borrow = 0;
    } else {
      limbs_[i] = static_cast<uint64_t>(
          (static_cast<u128>(1) << 64) + limbs_[i] - sub);
      borrow = 1;
    }
  }
  TBC_DCHECK(borrow == 0);
  Narrow();
  return *this;
}

BigUint& BigUint::MulWide(const BigUint& other) {
  if (IsZero() || other.IsZero()) {
    small_ = 0;
    limbs_.clear();
    return *this;
  }
  const Span<const uint64_t> a = View();
  const Span<const uint64_t> b = other.View();
  std::vector<uint64_t> result(a.size() + b.size(), 0);
  for (size_t i = 0; i < a.size(); ++i) {
    u128 carry = 0;
    for (size_t j = 0; j < b.size(); ++j) {
      u128 cur = static_cast<u128>(a[i]) * b[j] + result[i + j] + carry;
      result[i + j] = static_cast<uint64_t>(cur);
      carry = cur >> 64;
    }
    size_t k = i + b.size();
    while (carry != 0) {
      u128 cur = carry + result[k];
      result[k] = static_cast<uint64_t>(cur);
      carry = cur >> 64;
      ++k;
    }
  }
  small_ = 0;
  limbs_ = std::move(result);
  Narrow();
  return *this;
}

int BigUint::Compare(const BigUint& a, const BigUint& b) {
  const Span<const uint64_t> x = a.View();
  const Span<const uint64_t> y = b.View();
  if (x.size() != y.size()) return x.size() < y.size() ? -1 : 1;
  for (size_t i = x.size(); i-- > 0;) {
    if (x[i] != y[i]) return x[i] < y[i] ? -1 : 1;
  }
  return 0;
}

double BigUint::ToDouble() const {
  if (limbs_.empty()) return static_cast<double>(small_);
  double result = 0.0;
  for (size_t i = limbs_.size(); i-- > 0;) {
    result = result * 0x1.0p64 + static_cast<double>(limbs_[i]);
  }
  return result;
}

uint64_t BigUint::ToU64() const {
  TBC_CHECK_MSG(FitsU64(), "BigUint does not fit in uint64_t");
  return small_;
}

std::string BigUint::ToString() const {
  if (IsZero()) return "0";
  // Repeated division by 10^19 (largest power of ten in a limb).
  constexpr uint64_t kChunk = 10000000000000000000ull;  // 10^19
  std::vector<uint64_t> digits;  // base-10^19 digits, little-endian
  std::vector<uint64_t> work = limbs();
  while (!work.empty()) {
    u128 rem = 0;
    for (size_t i = work.size(); i-- > 0;) {
      u128 cur = (rem << 64) | work[i];
      work[i] = static_cast<uint64_t>(cur / kChunk);
      rem = cur % kChunk;
    }
    while (!work.empty() && work.back() == 0) work.pop_back();
    digits.push_back(static_cast<uint64_t>(rem));
  }
  std::string out = std::to_string(digits.back());
  for (size_t i = digits.size() - 1; i-- > 0;) {
    std::string part = std::to_string(digits[i]);
    out += std::string(19 - part.size(), '0') + part;
  }
  return out;
}

}  // namespace tbc
