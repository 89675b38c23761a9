#ifndef TBC_LOGIC_LIT_H_
#define TBC_LOGIC_LIT_H_

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "base/check.h"

namespace tbc {

/// Boolean variable, 0-based. DIMACS variable v maps to Var v-1.
using Var = uint32_t;

constexpr Var kInvalidVar = static_cast<Var>(-1);

/// The largest DIMACS variable number any reader accepts (2^28). Readers
/// size tables by the largest variable they see, and within this cap a
/// literal's negation, std::abs and its 2*var+sign code all stay in range.
constexpr int kMaxDimacsVar = 1 << 28;

/// A literal: a variable together with a sign. Encoded minisat-style as
/// 2*var + (negative ? 1 : 0), so literals index arrays directly.
class Lit {
 public:
  Lit() : code_(kInvalidCode) {}
  Lit(Var var, bool positive) : code_(2 * var + (positive ? 0u : 1u)) {}

  /// From a DIMACS-style signed integer (nonzero; |d|-1 is the variable).
  static Lit FromDimacs(int d) {
    TBC_CHECK(d != 0);
    return Lit(static_cast<Var>(std::abs(d) - 1), d > 0);
  }
  /// From the raw 2*var+sign encoding.
  static Lit FromCode(uint32_t code) {
    Lit l;
    l.code_ = code;
    return l;
  }

  Var var() const { return code_ >> 1; }
  bool positive() const { return (code_ & 1u) == 0; }
  /// Raw encoding in [0, 2*num_vars): useful as an array index.
  uint32_t code() const { return code_; }
  bool valid() const { return code_ != kInvalidCode; }

  /// Signed DIMACS integer (±(var+1)).
  int ToDimacs() const {
    int v = static_cast<int>(var()) + 1;
    return positive() ? v : -v;
  }

  Lit operator~() const { return FromCode(code_ ^ 1u); }

  friend bool operator==(Lit a, Lit b) { return a.code_ == b.code_; }
  friend bool operator!=(Lit a, Lit b) { return a.code_ != b.code_; }
  friend bool operator<(Lit a, Lit b) { return a.code_ < b.code_; }

  std::string ToString() const { return std::to_string(ToDimacs()); }

 private:
  static constexpr uint32_t kInvalidCode = static_cast<uint32_t>(-1);
  uint32_t code_;
};

/// Convenience constructors.
inline Lit Pos(Var v) { return Lit(v, true); }
inline Lit Neg(Var v) { return Lit(v, false); }

/// A complete truth assignment over variables 0..n-1.
using Assignment = std::vector<bool>;

/// Evaluates a literal under a complete assignment.
inline bool Eval(Lit l, const Assignment& a) {
  TBC_DCHECK(l.var() < a.size());
  return a[l.var()] == l.positive();
}

/// Per-literal real weights for weighted model counting. Indexed by
/// Lit::code(). Defaults to 1.0 for every literal (so WMC == #SAT).
class WeightMap {
 public:
  /// Weights for `num_vars` variables, all initialized to 1.0.
  explicit WeightMap(size_t num_vars) : w_(2 * num_vars, 1.0) {}

  double operator[](Lit l) const {
    TBC_DCHECK(l.code() < w_.size());
    return w_[l.code()];
  }
  void Set(Lit l, double weight) {
    TBC_DCHECK(l.code() < w_.size());
    w_[l.code()] = weight;
  }
  size_t num_vars() const { return w_.size() / 2; }

 private:
  std::vector<double> w_;
};

}  // namespace tbc

#endif  // TBC_LOGIC_LIT_H_
