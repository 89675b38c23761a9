#include "base/strings.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
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

void AppendDoubleHex(double v, std::string* out) {
  if (std::isnan(v)) {
    out->append("nan");
    return;
  }
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  // Sign, "0x", leading digit, '.', 13 mantissa digits, 'p', exponent sign
  // and at most four exponent digits: 24 bytes.
  char buf[32];
  char* p = buf;
  if (bits >> 63) *p++ = '-';
  if (std::isinf(v)) {
    std::memcpy(p, "inf", 3);
    out->append(buf, p + 3);
    return;
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
    int digits = 13;
    while ((mantissa & 0xf) == 0) {
      mantissa >>= 4;
      --digits;
    }
    for (int i = digits - 1; i >= 0; --i) {
      p[i] = "0123456789abcdef"[mantissa & 0xf];
      mantissa >>= 4;
    }
    p += digits;
  }
  *p++ = 'p';
  *p++ = exponent < 0 ? '-' : '+';
  p = std::to_chars(p, buf + sizeof(buf), std::abs(exponent)).ptr;
  out->append(buf, p);
}

std::string FormatDoubleHex(double v) {
  std::string out;
  AppendDoubleHex(v, &out);
  return out;
}

bool ParseDoubleAnyFormat(std::string_view token, double* out) {
  if (token.empty()) return false;
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
