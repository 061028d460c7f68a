// Strict parsing of command-line numbers, shared by the bench flag
// parser (bench_util.hpp) and the examples that read outside input.
#pragma once

#include <charconv>
#include <cstring>
#include <optional>
#include <system_error>
#include <type_traits>

namespace slcube {

/// Strict decimal parse of an unsigned value: the whole string must be
/// digits and fit in T. Signs, spaces, fractions, suffixes, hex and
/// empty strings are rejected (nullopt) rather than read as a prefix.
template <typename T>
[[nodiscard]] std::optional<T> parse_unsigned(const char* text) {
  static_assert(std::is_unsigned_v<T>);
  if (text == nullptr || *text < '0' || *text > '9') return std::nullopt;
  const char* const end = text + std::strlen(text);
  T value = 0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

}  // namespace slcube
