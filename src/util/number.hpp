// The one decimal codec for doubles.
//
// Every double the project writes as text for a machine to read back goes
// through appendDouble/formatDouble: canonical JSON numbers, checkpoint
// state strings, snapshot text (and so every WAL mark digest), and the
// Interval/Domain/IntervalSet renderings.  Every such text read back goes
// through parseDouble.  One encoder means two renderings of the same state
// cannot drift apart.
//
// appendDouble(out, v, digits) prints exactly what printf("%.*g", digits, v)
// prints — std::to_chars in general format with a precision is specified
// to — including "inf", "-inf", "nan", "-0" and subnormals.  17 significant
// digits round-trip every IEEE-754 double, and parseDouble returns the same
// bits strtod returns for such text.  parseDouble is std::from_chars, so
// unlike strtod it refuses a leading '+', leading whitespace, hex floats and
// text whose magnitude overflows or underflows a double; it must consume the
// whole text.
#pragma once

#include <charconv>
#include <concepts>
#include <optional>
#include <string>
#include <string_view>

namespace adpm::util {

/// Significant digits that round-trip every IEEE-754 double.
inline constexpr int kRoundTripDigits = 17;

/// Appends `v` as printf("%.*g", digits, v) renders it (digits >= 0).
void appendDouble(std::string& out, double v, int digits = kRoundTripDigits);

/// appendDouble into a fresh string.
std::string formatDouble(double v, int digits = kRoundTripDigits);

/// Parses the whole of `text` as a decimal double ("inf"/"nan" accepted);
/// nullopt when any byte is left over or the text is not a number.
std::optional<double> parseDouble(std::string_view text) noexcept;

/// Appends `n` in decimal (what std::to_string renders), without a
/// temporary string.
template <std::integral T>
void appendInteger(std::string& out, T n) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, n);
  out.append(buf, r.ptr);
}

}  // namespace adpm::util
