//===- StrUtil.h - Small string helpers -----------------------*- C++ -*-===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String helpers shared by the trace reader/writer and the report
/// printers. Kept deliberately tiny; no locale dependence anywhere.
///
//===----------------------------------------------------------------------===//

#ifndef ISOPREDICT_SUPPORT_STRUTIL_H
#define ISOPREDICT_SUPPORT_STRUTIL_H

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace isopredict {

/// Splits \p Text on \p Sep; empty fields are preserved.
std::vector<std::string_view> splitString(std::string_view Text, char Sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view trimString(std::string_view Text);

/// Parses a signed decimal integer; returns std::nullopt on any deviation
/// (trailing garbage, overflow, empty input).
std::optional<int64_t> parseInt(std::string_view Text);

/// Parses a decimal integer in [\p Min, \p Max] for an `unsigned`
/// setting; std::nullopt on anything parseInt rejects or out of range
/// (a value above UINT_MAX must not wrap into a small one).
std::optional<unsigned>
parseUnsigned(std::string_view Text, unsigned Min = 0,
              unsigned Max = std::numeric_limits<unsigned>::max());

/// Returns true if \p Text begins with \p Prefix.
bool startsWith(std::string_view Text, std::string_view Prefix);

/// ASCII-lowercased copy (no locale), for case-insensitive name parsers.
std::string toLowerAscii(std::string_view Text);

/// printf-style formatting into a std::string.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace isopredict

#endif // ISOPREDICT_SUPPORT_STRUTIL_H
