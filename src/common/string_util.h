#ifndef HIDO_COMMON_STRING_UTIL_H_
#define HIDO_COMMON_STRING_UTIL_H_

// Small string helpers shared by the CSV reader and the table printers.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace hido {

/// Splits `text` on `delim`. Adjacent delimiters yield empty fields; an
/// empty input yields a single empty field (CSV semantics).
std::vector<std::string> Split(std::string_view text, char delim);

/// Split without copying: fills `out` (cleared first) with views into
/// `text`, which must outlive them. Same field semantics as Split.
void SplitViews(std::string_view text, char delim,
                std::vector<std::string_view>* out);

/// Removes ASCII whitespace from both ends.
std::string_view Trim(std::string_view text);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// Parses a finite double from the whole of `text` (after trimming).
/// Locale-independent ('.' is the decimal point regardless of LC_NUMERIC);
/// trailing junk ("1.5abc") and out-of-range magnitudes ("1e999") are
/// distinct ParseErrors, never silently saturated.
Result<double> ParseDouble(std::string_view text);

/// Parses an integer from the whole of `text` (after trimming). Trailing
/// junk and values outside int64_t are ParseErrors (no strtoll saturation).
Result<int64_t> ParseInt(std::string_view text);

/// Parses a full-range uint64_t from the whole of `text` (after trimming).
/// Needed where int64_t truncates: RNG-derived seeds use all 64 bits.
/// Negative values, trailing junk, and overflow are ParseErrors.
Result<uint64_t> ParseUInt(std::string_view text);

/// True if `text` equals "" / "?" / "na" / "nan" / "null" case-insensitively
/// — the missing-value spellings accepted by the CSV reader. Allocation-free.
bool IsMissingToken(std::string_view text);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace hido

#endif  // HIDO_COMMON_STRING_UTIL_H_
