#include "base/strings.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace tbc {

std::vector<std::string> SplitWhitespace(std::string_view text) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    size_t start = i;
    while (i < text.size() && !std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    if (i > start) out.emplace_back(text.substr(start, i - start));
  }
  return out;
}

std::vector<std::string> SplitChar(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view StripWhitespace(std::string_view text) {
  size_t b = 0;
  size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

Status BadLine(size_t line_no, const std::string& what) {
  return Status::InvalidInput("line " + std::to_string(line_no) + ": " + what);
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool ParseUint64(std::string_view token, uint64_t* out) {
  if (token.empty()) return false;
  const char* first = token.data();
  const char* last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(first, last, *out);
  return ec == std::errc() && ptr == last;
}

bool ParseInt(std::string_view token, int* out) {
  if (token.empty()) return false;
  const char* first = token.data();
  const char* last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(first, last, *out);
  return ec == std::errc() && ptr == last;
}

bool ParseDouble(std::string_view token, double* out) {
  if (token.empty()) return false;
  // std::from_chars: locale-independent by definition (strtod honours the
  // run-time locale's radix character, so "1.5" fails to parse fully under
  // a comma-decimal locale — see the LocaleIndependence tests).
  const char* first = token.data();
  const char* last = token.data() + token.size();
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(first, last, value, std::chars_format::general);
  if (ec != std::errc() || ptr != last) return false;
  if (!std::isfinite(value)) return false;
  *out = value;
  return true;
}

char* WriteDoubleHex(double v, char* p) {
  if (std::isnan(v)) {
    std::memcpy(p, "nan", 3);
    return p + 3;
  }
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  if (bits >> 63) *p++ = '-';
  if (std::isinf(v)) {
    std::memcpy(p, "inf", 3);
    return p + 3;
  }
  const uint64_t biased = (bits >> 52) & 0x7ff;
  uint64_t mantissa = bits & ((uint64_t{1} << 52) - 1);
  *p++ = '0';
  *p++ = 'x';
  *p++ = biased == 0 ? '0' : '1';
  // Zero prints its exponent as +0; a subnormal keeps the minimum normal
  // exponent with a leading 0 digit.
  const int exponent = biased == 0 ? (mantissa == 0 ? 0 : -1022)
                                   : static_cast<int>(biased) - 1023;
  if (mantissa != 0) {
    *p++ = '.';
    // Trailing zero digits are dropped: 13 digits less one per four
    // trailing zero bits.
    const int zeros = std::countr_zero(mantissa) / 4;
    const int digits = 13 - zeros;
    mantissa >>= 4 * zeros;
    for (int i = digits - 1; i >= 0; --i) {
      p[i] = "0123456789abcdef"[mantissa & 0xf];
      mantissa >>= 4;
    }
    p += digits;
  }
  *p++ = 'p';
  *p++ = exponent < 0 ? '-' : '+';
  // Sign, "0x", leading digit, '.', 13 digits, 'p' and exponent sign take
  // 20 bytes: the exponent's at most four digits fit kMaxDoubleHexChars.
  return std::to_chars(p, p + 4, std::abs(exponent)).ptr;
}

void AppendDoubleHex(double v, std::string* out) {
  char buf[kMaxDoubleHexChars];
  out->append(buf, WriteDoubleHex(v, buf));
}

std::string FormatDoubleHex(double v) {
  std::string out;
  AppendDoubleHex(v, &out);
  return out;
}

namespace {

/// Value of each byte as a lower-case hex digit, kNotDigit for every other
/// byte. One load per digit replaces a compare chain ('0'-'9' or 'a'-'f')
/// whose outcome changes from digit to digit: live tokens carry random
/// digits, so that chain mispredicts, while the table leaves only the
/// digit loop's exit test.
constexpr uint8_t kNotDigit = 0xff;
constexpr std::array<uint8_t, 256> kHexDigitValue = [] {
  std::array<uint8_t, 256> table{};
  table.fill(kNotDigit);
  for (int d = 0; d < 10; ++d) table['0' + d] = static_cast<uint8_t>(d);
  for (int d = 0; d < 6; ++d) table['a' + d] = static_cast<uint8_t>(10 + d);
  return table;
}();

uint8_t DigitValue(char c) {
  return kHexDigitValue[static_cast<unsigned char>(c)];
}

}  // namespace

size_t ReadDoubleHexCanonical(std::string_view text, double* out) {
  const char* p = text.data();
  const char* const end = p + text.size();
  uint64_t bits = 0;
  if (p != end && *p == '-') {
    bits = uint64_t{1} << 63;
    ++p;
  }
  // "0x", the leading digit, and at least "p+0" after it.
  if (end - p < 6 || p[0] != '0' || p[1] != 'x' ||
      (p[2] != '0' && p[2] != '1')) {
    return 0;
  }
  const bool normal = p[2] == '1';
  p += 3;
  uint64_t fraction = 0;
  if (*p == '.') {
    const char* const first = ++p;
    const char* const last = p + std::min<ptrdiff_t>(13, end - p);
    for (; p != last; ++p) {
      const uint8_t d = DigitValue(*p);
      if (d == kNotDigit) break;
      fraction = fraction << 4 | d;
    }
    if (p == first) return 0;
    fraction <<= 4 * (13 - (p - first));
  }
  if (end - p < 3 || p[0] != 'p' || (p[1] != '+' && p[1] != '-')) return 0;
  const bool negative_exponent = p[1] == '-';
  p += 2;
  const char* const first = p;
  const char* const last = p + std::min<ptrdiff_t>(4, end - p);
  int exponent = 0;
  for (; p != last; ++p) {
    const uint8_t d = DigitValue(*p);
    if (d > 9) break;
    exponent = exponent * 10 + d;
  }
  if (p == first) return 0;
  if (negative_exponent) exponent = -exponent;
  if (normal) {
    if (exponent < -1022 || exponent > 1023) return 0;
    bits |= static_cast<uint64_t>(exponent + 1023) << 52;
  } else if (exponent != -1022 && !(exponent == 0 && fraction == 0)) {
    return 0;  // a leading 0 spells a subnormal (or zero) only here
  }
  bits |= fraction;
  std::memcpy(out, &bits, sizeof bits);
  return static_cast<size_t>(p - text.data());
}

bool ParseDoubleAnyFormat(std::string_view token, double* out) {
  if (token.empty()) return false;
  double canonical = 0.0;
  if (ReadDoubleHexCanonical(token, &canonical) == token.size()) {
    *out = canonical;
    return true;
  }
  std::string_view t = token;
  bool negative = false;
  if (t[0] == '+' || t[0] == '-') {
    negative = t[0] == '-';
    t.remove_prefix(1);
    if (t.empty()) return false;
  }
  double value = 0.0;
  if (t == "inf" || t == "infinity") {
    value = std::numeric_limits<double>::infinity();
  } else {
    // from_chars hex format expects no "0x" prefix; its presence selects
    // the format.
    std::chars_format format = std::chars_format::general;
    if (t.size() > 2 && t[0] == '0' && (t[1] == 'x' || t[1] == 'X')) {
      t.remove_prefix(2);
      format = std::chars_format::hex;
    }
    const auto [ptr, ec] =
        std::from_chars(t.data(), t.data() + t.size(), value, format);
    if (ec != std::errc() || ptr != t.data() + t.size()) return false;
    if (std::isnan(value)) return false;
  }
  *out = negative ? -value : value;
  return true;
}

}  // namespace tbc
