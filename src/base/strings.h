#ifndef TBC_BASE_STRINGS_H_
#define TBC_BASE_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace tbc {

/// Splits on any run of whitespace; no empty tokens are produced.
std::vector<std::string> SplitWhitespace(std::string_view text);

/// Splits on a single separator character; empty fields are kept.
std::vector<std::string> SplitChar(std::string_view text, char sep);

/// Removes leading and trailing whitespace.
std::string_view StripWhitespace(std::string_view text);

/// Joins with a separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

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

/// AppendDoubleHex into a fresh string.
std::string FormatDoubleHex(double v);

/// Locale-independent inverse of FormatDoubleHex, additionally accepting
/// plain decimal ("1.5e3") for hand-written inputs. The whole token must
/// parse; "nan" is rejected (no wire value is NaN).
bool ParseDoubleAnyFormat(std::string_view token, double* out);

}  // namespace tbc

#endif  // TBC_BASE_STRINGS_H_
