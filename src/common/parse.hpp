// Strict parsing of command-line numbers, shared by the bench flag
// parser (bench_util.hpp) and the examples that read outside input.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
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

/// Positional argument `index` of a command line, parsed strictly as a T
/// in [lo, hi], or `fallback` when the command line is shorter. A
/// malformed or out-of-range value is a usage error: it names `what` on
/// stderr and exits 2.
template <typename T>
[[nodiscard]] T positional_or(int argc, char** argv, int index, T fallback,
                              const char* what, T lo = 0,
                              T hi = std::numeric_limits<T>::max()) {
  if (index >= argc) return fallback;
  const std::optional<T> value = parse_unsigned<T>(argv[index]);
  if (!value || *value < lo || *value > hi) {
    std::fprintf(stderr, "%s: %s must be an integer in %llu..%llu, got '%s'\n",
                 argv[0], what, static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi), argv[index]);
    std::exit(2);
  }
  return *value;
}

}  // namespace slcube
