// Small string helpers shared across modules.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace adpm::util {

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s) noexcept;

/// Splits on a single-character separator; adjacent separators yield empty
/// fields.  An empty input yields one empty field.
std::vector<std::string> split(std::string_view s, char sep);

/// Joins with a separator string.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `s` starts with `prefix`.
bool startsWith(std::string_view s, std::string_view prefix) noexcept;

/// Lower-cases ASCII letters.
std::string toLower(std::string_view s);

/// FNV-1a 64-bit offset basis: the hash of the empty string.
inline constexpr std::uint64_t kFnv1a64Basis = 0xcbf29ce484222325ull;

/// FNV-1a 64-bit hash; the service layer digests session snapshots with it
/// (stable across platforms, no dependency on std::hash).  Passing the hash
/// of a prefix as `h` continues it: fnv1a64(b, fnv1a64(a)) is the hash of
/// the concatenation a + b.
std::uint64_t fnv1a64(std::string_view s,
                      std::uint64_t h = kFnv1a64Basis) noexcept;

/// `h` rendered as 16 lowercase hex digits.
std::string hex64(std::uint64_t h);

/// fnv1a64 rendered as 16 lowercase hex digits.
std::string fnv1a64Hex(std::string_view s);

}  // namespace adpm::util
