#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "base/bigint.h"
#include "base/random.h"
#include "base/strings.h"

#include <clocale>
#include <cmath>
#include <cstring>
#include <locale>
#include <sstream>

namespace tbc {
namespace {

TEST(BigUintTest, ZeroAndSmallValues) {
  BigUint zero;
  EXPECT_TRUE(zero.IsZero());
  EXPECT_EQ(zero.ToString(), "0");
  EXPECT_EQ(zero.ToU64(), 0u);

  BigUint five(5);
  EXPECT_FALSE(five.IsZero());
  EXPECT_EQ(five.ToString(), "5");
  EXPECT_EQ(five.ToU64(), 5u);
  EXPECT_DOUBLE_EQ(five.ToDouble(), 5.0);
}

TEST(BigUintTest, AdditionMatchesU64) {
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    uint64_t a = rng.Next() >> 2;
    uint64_t b = rng.Next() >> 2;
    EXPECT_EQ((BigUint(a) + BigUint(b)).ToU64(), a + b);
  }
}

TEST(BigUintTest, MultiplicationMatchesU64) {
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    uint64_t a = rng.Next() >> 33;
    uint64_t b = rng.Next() >> 33;
    EXPECT_EQ((BigUint(a) * BigUint(b)).ToU64(), a * b);
  }
}

TEST(BigUintTest, FullWidthProductsMatchU128) {
  // Full 64-bit operands, so the product spills into a second limb: the
  // in-place single-limb path against the compiler's 128-bit product.
  __extension__ typedef unsigned __int128 u128;
  Rng rng(3);
  const auto check_canonical = [](const BigUint& x) {
    EXPECT_TRUE(x.limbs().empty() || x.limbs().back() != 0);
  };
  for (int i = 0; i < 2000; ++i) {
    // Every fourth operand is narrow, so some products fit one limb.
    const uint64_t a = i % 4 == 1 ? rng.Next() >> 40 : rng.Next();
    const uint64_t b = i % 4 == 2 ? rng.Next() >> 40 : rng.Next();
    const u128 expected = static_cast<u128>(a) * b;
    const uint64_t lo = static_cast<uint64_t>(expected);
    const uint64_t hi = static_cast<uint64_t>(expected >> 64);
    BigUint product(a);
    product *= BigUint(b);
    check_canonical(product);
    EXPECT_EQ(product.FitsU64(), hi == 0) << a << " * " << b;
    if (hi == 0) {
      EXPECT_EQ(product.limbs(), std::vector<uint64_t>{lo});
    } else {
      EXPECT_EQ(product.limbs(), (std::vector<uint64_t>{lo, hi}));
    }
    // Two limbs times one goes through the general path: associativity
    // ties the two paths together.
    const uint64_t c = rng.Next();
    const BigUint left = product * BigUint(c);
    const BigUint right = BigUint(a) * (BigUint(b) * BigUint(c));
    check_canonical(left);
    EXPECT_EQ(left, right);
  }
  BigUint zero_times(~0ull);
  zero_times *= BigUint(0);
  EXPECT_TRUE(zero_times.IsZero());
  EXPECT_TRUE(zero_times.limbs().empty());
  BigUint max_square(~0ull);
  max_square *= BigUint(~0ull);  // (2^64 - 1)^2 = 2^128 - 2^65 + 1
  EXPECT_EQ(max_square.limbs(), (std::vector<uint64_t>{1, ~0ull - 1}));
}

TEST(BigUintTest, AddShiftedMatchesProductByPowerOfTwo) {
  // acc + x·2^k by the general operators, against the in-place shifted
  // add, over one- to three-limb values, shifts within and across limbs,
  // and carries that run past x's top limb.
  Rng rng(4);
  const auto random_value = [&rng]() {
    BigUint v(rng.Next());
    for (size_t limbs = rng.Below(3); limbs > 0; --limbs) {
      const uint64_t limb = rng.Flip(0.3) ? ~0ull : rng.Next();
      v = v * BigUint::PowerOfTwo(64) + BigUint(limb);
    }
    return v;
  };
  for (int i = 0; i < 2000; ++i) {
    const BigUint acc = rng.Flip(0.1) ? BigUint(0) : random_value();
    const BigUint x = rng.Flip(0.05) ? BigUint(0) : random_value();
    const unsigned k = i % 5 == 0 ? 0 : static_cast<unsigned>(rng.Below(200));
    BigUint shifted = acc;
    shifted.AddShifted(x, k);
    EXPECT_EQ(shifted, acc + x * BigUint::PowerOfTwo(k)) << "k " << k;
    EXPECT_TRUE(shifted.limbs().empty() || shifted.limbs().back() != 0);
  }
  BigUint all_ones(~0ull);
  all_ones.AddShifted(BigUint(1), 0);  // carries into a new limb
  EXPECT_EQ(all_ones, BigUint::PowerOfTwo(64));
  BigUint wide = BigUint::PowerOfTwo(200) + BigUint(~0ull);
  wide.AddShifted(BigUint(~0ull), 1);  // carry runs up through zero limbs
  EXPECT_EQ(wide, BigUint::PowerOfTwo(200) + BigUint(~0ull) +
                      BigUint(~0ull) * BigUint(2));
}

TEST(BigUintTest, CarryAcrossLimbs) {
  BigUint max64(~0ull);
  BigUint sum = max64 + BigUint(1);
  EXPECT_FALSE(sum.FitsU64());
  EXPECT_EQ(sum.ToString(), "18446744073709551616");  // 2^64
  EXPECT_EQ(sum, BigUint::PowerOfTwo(64));
}

TEST(BigUintTest, PowerOfTwoLarge) {
  // 2^128 = 340282366920938463463374607431768211456.
  EXPECT_EQ(BigUint::PowerOfTwo(128).ToString(),
            "340282366920938463463374607431768211456");
}

TEST(BigUintTest, MultiplicationLarge) {
  // (2^64)^2 = 2^128.
  BigUint x = BigUint::PowerOfTwo(64);
  EXPECT_EQ(x * x, BigUint::PowerOfTwo(128));
  // Factorial of 25 exceeds 2^64.
  BigUint fact(1);
  for (uint64_t i = 2; i <= 25; ++i) fact *= BigUint(i);
  EXPECT_EQ(fact.ToString(), "15511210043330985984000000");
}

TEST(BigUintTest, Subtraction) {
  BigUint x = BigUint::PowerOfTwo(64);
  EXPECT_EQ((x - BigUint(1)).ToString(), "18446744073709551615");
  EXPECT_EQ(x - x, BigUint(0));
}

// Values below 2^64 are held inline and larger ones in limbs: a result
// that comes back below 2^64 must equal, and serialize as, the inline
// value, whichever operation produced it.
TEST(BigUintTest, InlineAndLimbFormsMeetAt2To64) {
  const BigUint two64 = BigUint::PowerOfTwo(64);
  EXPECT_EQ((two64 + BigUint(5)) - two64, BigUint(5));
  EXPECT_TRUE(((two64 + BigUint(5)) - two64).FitsU64());
  EXPECT_EQ(two64 - BigUint(1), BigUint(~0ull));
  EXPECT_EQ(two64 - two64, BigUint());
  EXPECT_TRUE((BigUint(0) * BigUint::PowerOfTwo(100)).IsZero());
  EXPECT_EQ(BigUint(5).limbs(), std::vector<uint64_t>{5});
  EXPECT_TRUE(BigUint().limbs().empty());
  EXPECT_EQ(two64.limbs(), (std::vector<uint64_t>{0, 1}));
  BigUint restored;
  ASSERT_TRUE(BigUint::FromLimbs({7}, &restored));
  EXPECT_EQ(restored, BigUint(7));
  ASSERT_TRUE(BigUint::FromLimbs({}, &restored));
  EXPECT_EQ(restored, BigUint());
  // A shifted add that crosses 2^64: 1 + 3·2^63 = 2^64 + 2^63 + 1.
  BigUint crossed(1);
  crossed.AddShifted(BigUint(3), 63);
  EXPECT_EQ(crossed, two64 + BigUint::PowerOfTwo(63) + BigUint(1));
  // A sum with itself that crosses 2^64: 2·(2^64 - 1).
  BigUint doubled(~0ull);
  doubled += doubled;
  EXPECT_EQ(doubled.ToString(), "36893488147419103230");
  BigUint squared(~0ull);
  squared *= squared;
  EXPECT_EQ(squared, BigUint::PowerOfTwo(128) - BigUint::PowerOfTwo(65) +
                         BigUint(1));
}

TEST(BigUintTest, Comparisons) {
  EXPECT_LT(BigUint(3), BigUint(4));
  EXPECT_GT(BigUint::PowerOfTwo(70), BigUint(~0ull));
  EXPECT_LE(BigUint(4), BigUint(4));
  EXPECT_NE(BigUint(0), BigUint(1));
}

TEST(BigUintTest, ToDoubleLarge) {
  EXPECT_NEAR(BigUint::PowerOfTwo(100).ToDouble(), std::pow(2.0, 100), 1e15);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, BelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(13), 13u);
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(StringsTest, SplitWhitespace) {
  auto parts = SplitWhitespace("  a b\t c \n");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringsTest, SplitChar) {
  auto parts = SplitChar("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(StringsTest, StripAndJoin) {
  EXPECT_EQ(StripWhitespace("  hi  "), "hi");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StringsTest, HexFloatCodecRoundTripsBitExactly) {
  const double values[] = {0.0,
                           -0.0,
                           1.0,
                           0.1,
                           0.4375,
                           1e-300,
                           5e-324,  // min subnormal
                           1e300,
                           0x1.fffffffffffffp+1023,  // max finite
                           -0x1.5555555555555p-2};
  for (double v : values) {
    const std::string hex = FormatDoubleHex(v);
    double back = 42.0;
    ASSERT_TRUE(ParseDoubleAnyFormat(hex, &back)) << hex;
    EXPECT_EQ(std::memcmp(&v, &back, sizeof v), 0) << hex;  // incl. -0.0
  }
  double out = 0.0;
  EXPECT_TRUE(ParseDoubleAnyFormat("inf", &out));
  EXPECT_TRUE(std::isinf(out) && out > 0.0);
  EXPECT_TRUE(ParseDoubleAnyFormat("-infinity", &out));
  EXPECT_TRUE(std::isinf(out) && out < 0.0);
  EXPECT_EQ(FormatDoubleHex(out), "-inf");
  EXPECT_TRUE(ParseDoubleAnyFormat("1.5e3", &out));  // decimal still accepted
  EXPECT_EQ(out, 1500.0);
  EXPECT_FALSE(ParseDoubleAnyFormat("nan", &out));
  EXPECT_FALSE(ParseDoubleAnyFormat("0x", &out));
  EXPECT_FALSE(ParseDoubleAnyFormat("0x1.8p+1junk", &out));
  EXPECT_FALSE(ParseDoubleAnyFormat("", &out));
}

// The one-pass reader takes exactly the canonical tokens: every finite
// value's own token, bit for bit, and nothing else, while the general path
// still reads the rest with the same value.
bool WholeCanonicalToken(std::string_view token, double* out) {
  return !token.empty() && ReadDoubleHexCanonical(token, out) == token.size();
}

TEST(StringsTest, CanonicalHexReaderTakesTheWriterTokensOnly) {
  Rng rng(0xca11);
  for (int i = 0; i < 20000; ++i) {
    uint64_t bits = rng.Next();
    if (i % 4 == 1) bits &= 0x800fffffffffffffull;  // subnormals and zeros
    if (i % 4 == 2) bits &= 0xfff000000000000full;  // one mantissa digit
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    if (!std::isfinite(v)) continue;
    char buf[kMaxDoubleHexChars];
    const std::string hex(buf, WriteDoubleHex(v, buf));
    EXPECT_EQ(hex, FormatDoubleHex(v));
    double back = 42.0;
    ASSERT_TRUE(WholeCanonicalToken(hex, &back)) << hex;
    EXPECT_EQ(std::memcmp(&v, &back, sizeof v), 0) << hex;
  }
  EXPECT_EQ(FormatDoubleHex(-0x1.fffffffffffffp+1023).size(),
            kMaxDoubleHexChars);

  double out = 0.0;
  for (const char* other : {"0X1p+0", "0x1.ABCp+0", "0x1.8P+1", "0x1p0",
                            "+0x1p+0", "0x1.00000000000000p+0", "0x1p+00001",
                            "0x0.8p+0", "0x2p+0", "0x1p-1023", "0x1.p+0",
                            "1.5e3", "inf"}) {
    EXPECT_FALSE(WholeCanonicalToken(other, &out)) << other;
    EXPECT_TRUE(ParseDoubleAnyFormat(other, &out)) << other;
  }
  for (const char* bad : {"", "-", "0x", "0x1p+", "0x1p+1024",
                          "0x1 p+0", "0x1p+0 ", "0x1p+0\t", "nan"}) {
    EXPECT_FALSE(WholeCanonicalToken(bad, &out)) << bad;
    EXPECT_FALSE(ParseDoubleAnyFormat(bad, &out)) << bad;
  }
  ASSERT_TRUE(ParseDoubleAnyFormat("0x1.ABCp+0", &out));
  EXPECT_EQ(out, 0x1.abcp+0);

  // A token read from the front of a line: the caller checks what follows.
  EXPECT_EQ(ReadDoubleHexCanonical("0x1.8p+1\nmarg", &out), 8u);
  EXPECT_EQ(out, 3.0);
  EXPECT_EQ(ReadDoubleHexCanonical("-0x1p-10000", &out), 10u);  // 4 digits
  EXPECT_EQ(ReadDoubleHexCanonical("0x1.8p+1", &out), 8u);
  out = 7.0;
  EXPECT_EQ(ReadDoubleHexCanonical("0x1.8q+1", &out), 0u);
  EXPECT_EQ(out, 7.0);  // untouched when nothing is read
}

// A numpunct facet whose radix character is ',' — what a de_DE/fr_FR
// locale does to locale-sensitive numeric code.
class CommaNumpunct : public std::numpunct<char> {
 protected:
  char do_decimal_point() const override { return ','; }
};

// Satellite pin for the locale-independence audit: every numeric codec on
// a serialization path (ParseDouble, the hexfloat WMC transport) must be
// immune to the run-time locale's radix character. The container only
// ships C/POSIX locales, so the test installs a comma-radix C++ global
// locale directly (and opportunistically a named C locale when one
// exists) rather than skipping.
TEST(StringsTest, NumericCodecsIgnoreCommaDecimalLocale) {
  const std::locale saved_cpp = std::locale::global(
      std::locale(std::locale::classic(), new CommaNumpunct));
  const std::string saved_c = std::setlocale(LC_ALL, nullptr);
  for (const char* name : {"de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8",
                           "fr_FR.utf8", "de_DE", "fr_FR"}) {
    if (std::setlocale(LC_ALL, name) != nullptr) break;
  }

  // Prove a comma locale is genuinely active for locale-sensitive code.
  std::ostringstream sensitive;
  sensitive.imbue(std::locale());
  sensitive << 1.5;
  ASSERT_EQ(sensitive.str(), "1,5");

  double out = 0.0;
  EXPECT_TRUE(ParseDouble("1.5", &out));
  EXPECT_EQ(out, 1.5);
  EXPECT_FALSE(ParseDouble("1,5", &out));  // comma is never a radix on disk
  const double v = 0.4375;
  EXPECT_EQ(FormatDoubleHex(v), "0x1.cp-2");  // no comma sneaks in
  double back = 0.0;
  EXPECT_TRUE(ParseDoubleAnyFormat("0x1.cp-2", &back));
  EXPECT_EQ(back, v);

  std::setlocale(LC_ALL, saved_c.c_str());
  std::locale::global(saved_cpp);
}

}  // namespace
}  // namespace tbc
