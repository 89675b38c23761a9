#include "base/bigint.h"

#include <algorithm>
#include <cmath>

#include "base/check.h"

namespace tbc {

namespace {
// GCC/Clang extension, hidden behind __extension__ to stay -Wpedantic clean.
__extension__ typedef unsigned __int128 u128;
}  // namespace

BigUint::BigUint(uint64_t value) {
  if (value != 0) limbs_.push_back(value);
}

BigUint BigUint::PowerOfTwo(unsigned k) {
  BigUint r;
  r.limbs_.assign(k / 64 + 1, 0);
  r.limbs_.back() = 1ull << (k % 64);
  return r;
}

void BigUint::Trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigUint& BigUint::operator+=(const BigUint& other) {
  const size_t n = std::max(limbs_.size(), other.limbs_.size());
  limbs_.resize(n, 0);
  u128 carry = 0;
  for (size_t i = 0; i < n; ++i) {
    u128 sum = carry + limbs_[i];
    if (i < other.limbs_.size()) sum += other.limbs_[i];
    limbs_[i] = static_cast<uint64_t>(sum);
    carry = sum >> 64;
  }
  if (carry != 0) limbs_.push_back(static_cast<uint64_t>(carry));
  return *this;
}

BigUint& BigUint::AddShifted(const BigUint& x, unsigned k) {
  TBC_DCHECK(&x != this);
  if (x.IsZero()) return *this;
  if (k == 0) return *this += x;
  const size_t word = k / 64;
  const unsigned bit = k % 64;
  // x · 2^k spans limbs [word, word + x.size() + 1); add it limb by limb.
  const size_t n = std::max(limbs_.size(), word + x.limbs_.size() + 1);
  limbs_.resize(n, 0);
  u128 carry = 0;
  uint64_t spill = 0;  // x's bits shifted out of the previous limb
  for (size_t i = word; i < n; ++i) {
    const size_t j = i - word;
    uint64_t part = spill;
    if (j < x.limbs_.size()) {
      part |= bit == 0 ? x.limbs_[j] : x.limbs_[j] << bit;
      spill = bit == 0 ? 0 : x.limbs_[j] >> (64 - bit);
    } else {
      spill = 0;
    }
    const u128 sum = carry + limbs_[i] + part;
    limbs_[i] = static_cast<uint64_t>(sum);
    carry = sum >> 64;
    if (j >= x.limbs_.size() && spill == 0 && carry == 0) break;
  }
  if (carry != 0) limbs_.push_back(static_cast<uint64_t>(carry));
  Trim();
  return *this;
}

BigUint& BigUint::operator-=(const BigUint& other) {
  TBC_CHECK_MSG(*this >= other, "BigUint subtraction underflow");
  u128 borrow = 0;
  for (size_t i = 0; i < limbs_.size(); ++i) {
    u128 sub = borrow;
    if (i < other.limbs_.size()) sub += other.limbs_[i];
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
  Trim();
  return *this;
}

BigUint& BigUint::operator*=(const BigUint& other) {
  if (IsZero() || other.IsZero()) {
    limbs_.clear();
    return *this;
  }
  if (limbs_.size() == 1 && other.limbs_.size() == 1) {
    // The common case of counting: one limb each, multiplied in place.
    const u128 product = static_cast<u128>(limbs_[0]) * other.limbs_[0];
    const uint64_t low = static_cast<uint64_t>(product);
    const uint64_t high = static_cast<uint64_t>(product >> 64);
    // assign, not push_back: GCC 12 flags the latter's reallocation path
    // with a false -Warray-bounds here.
    if (high == 0) {
      limbs_[0] = low;
    } else {
      limbs_.assign({low, high});
    }
    return *this;
  }
  std::vector<uint64_t> result(limbs_.size() + other.limbs_.size(), 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    u128 carry = 0;
    for (size_t j = 0; j < other.limbs_.size(); ++j) {
      u128 cur =
          static_cast<u128>(limbs_[i]) * other.limbs_[j] +
          result[i + j] + carry;
      result[i + j] = static_cast<uint64_t>(cur);
      carry = cur >> 64;
    }
    size_t k = i + other.limbs_.size();
    while (carry != 0) {
      u128 cur = carry + result[k];
      result[k] = static_cast<uint64_t>(cur);
      carry = cur >> 64;
      ++k;
    }
  }
  limbs_ = std::move(result);
  Trim();
  return *this;
}

int BigUint::Compare(const BigUint& a, const BigUint& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  }
  for (size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

double BigUint::ToDouble() const {
  double result = 0.0;
  for (size_t i = limbs_.size(); i-- > 0;) {
    result = result * 0x1.0p64 + static_cast<double>(limbs_[i]);
  }
  return result;
}

uint64_t BigUint::ToU64() const {
  TBC_CHECK_MSG(FitsU64(), "BigUint does not fit in uint64_t");
  return limbs_.empty() ? 0 : limbs_[0];
}

std::string BigUint::ToString() const {
  if (IsZero()) return "0";
  // Repeated division by 10^19 (largest power of ten in a limb).
  constexpr uint64_t kChunk = 10000000000000000000ull;  // 10^19
  std::vector<uint64_t> digits;  // base-10^19 digits, little-endian
  std::vector<uint64_t> work = limbs_;
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
