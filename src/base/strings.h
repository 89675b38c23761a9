#ifndef TBC_BASE_STRINGS_H_
#define TBC_BASE_STRINGS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"

namespace tbc {

/// Splits on any run of whitespace; no empty tokens are produced.
std::vector<std::string> SplitWhitespace(std::string_view text);

/// Splits on a single separator character; empty fields are kept.
std::vector<std::string> SplitChar(std::string_view text, char sep);

/// Removes leading and trailing whitespace.
std::string_view StripWhitespace(std::string_view text);

/// Joins with a separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// The refusal every line-oriented file reader gives: kInvalidInput with
/// "line <line_no>: <what>".
Status BadLine(size_t line_no, const std::string& what);

/// `s` escaped for the inside of a JSON string: quote, backslash, \n, \t
/// and \r get their short escapes, other control bytes \u00XX.
std::string JsonEscape(std::string_view s);

/// Strict numeric parsing for the file-format parsers: the whole token must
/// be a valid number (no trailing junk, no empty token, no overflow).
/// Returns false on malformed input instead of throwing or aborting.
bool ParseUint64(std::string_view token, uint64_t* out);
bool ParseInt(std::string_view token, int* out);
bool ParseDouble(std::string_view token, double* out);

/// Shortest round-trippable hexfloat ("0x1.8p+1"; "inf"/"-inf"/"nan" for
/// non-finite values), appended to *out. Locale-independent — unlike
/// printf "%a", whose output embeds the run-time locale's radix character
/// — so values travel bit-exactly between processes regardless of either
/// side's locale (the wire protocol's WMC transport and kc_cli's
/// `c wmc_hex:` line). The digits are written here rather than by the C++
/// runtime, whose hex std::to_chars spells subnormals differently across
/// library versions: a subnormal is always "0x0.<13 digits, trailing
/// zeros dropped>p-1022", as glibc's "%a" writes it.
void AppendDoubleHex(double v, std::string* out);

/// The most bytes WriteDoubleHex writes ("-0x1.fffffffffffffp+1023").
inline constexpr size_t kMaxDoubleHexChars = 24;

/// AppendDoubleHex's bytes written at `out`, which must have room for
/// kMaxDoubleHexChars; returns one past the last byte written. Lets a
/// caller build a whole line in one buffer and append it with one write.
char* WriteDoubleHex(double v, char* out);

/// AppendDoubleHex into a fresh string.
std::string FormatDoubleHex(double v);

/// One-pass reader for the canonical hexfloats AppendDoubleHex writes:
/// [-]0x[01][.h{1,13}]p(+|-)d{1,4}, lower-case hex digits, and a value the
/// digits spell exactly (a leading 1 with an exponent in [-1022, 1023], a
/// leading 0 with exponent -1022, or 0x0p+0). Reads such a token from the
/// front of `text`, sets *out, and returns its length; returns 0, leaving
/// *out alone, if `text` does not start with one; the caller checks what
/// follows the token. std::from_chars reads the same bits from every token
/// read here. 0 means only "not canonical": the token may still be a
/// number that ParseDoubleAnyFormat reads.
size_t ReadDoubleHexCanonical(std::string_view text, double* out);

/// Locale-independent inverse of FormatDoubleHex, additionally accepting
/// plain decimal ("1.5e3") for hand-written inputs. The whole token must
/// parse; "nan" is rejected (no wire value is NaN). Canonical tokens take
/// ReadDoubleHexCanonical; every other token goes through std::from_chars.
bool ParseDoubleAnyFormat(std::string_view token, double* out);

}  // namespace tbc

#endif  // TBC_BASE_STRINGS_H_
