// slcube::obs — the JSON dialect every emitter in obs writes (one escaper,
// one object writer), and a deliberately small JSONL reader for it. One
// flat JSON object per line whose values are numbers, booleans, strings,
// null, or one level of nested object (flattened into dotted keys on
// read, e.g. "values.delivered").
// Not a general JSON library — arrays and deeper nesting are rejected.
//
// Escaping contract: write_quoted writes `\"`, `\\`, `\n`, `\t` and `\r`,
// and every other byte below 0x20 as `\u00XX`; all other bytes pass through
// unchanged. ObjectWriter writes a non-finite double as `null`. The reader
// decodes these escapes (plus `\/` and any ASCII `\u00XX`) and reads null
// as NaN, so any string or finite double survives a write/read round trip.
#pragma once

#include <concepts>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace slcube::obs {

/// Write `s` as a quoted JSON string under the escaping contract above.
void write_quoted(std::ostream& os, std::string_view s);

/// Comma-managed emitter for one JSON object: '{' on construction, '}' on
/// destruction. A nested object is a second ObjectWriter on key()'s
/// stream, destroyed before its parent.
class ObjectWriter {
 public:
  explicit ObjectWriter(std::ostream& os) : os_(os) { os_ << '{'; }
  ~ObjectWriter() { os_ << '}'; }
  ObjectWriter(const ObjectWriter&) = delete;
  ObjectWriter& operator=(const ObjectWriter&) = delete;

  /// Separator plus the quoted key and ':'; the caller writes the value.
  std::ostream& key(std::string_view k);

  void str(std::string_view k, std::string_view v) { write_quoted(key(k), v); }
  void boolean(std::string_view k, bool v) { key(k) << (v ? "true" : "false"); }
  /// A non-finite value is written as null.
  void num(std::string_view k, double v);
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  void num(std::string_view k, T v) {
    key(k) << v;
  }

 private:
  std::ostream& os_;
  bool first_ = true;
};

using JsonValue = std::variant<std::nullptr_t, bool, double, std::string>;

/// One parsed trace line: flattened key -> value.
struct ParsedEvent {
  std::map<std::string, JsonValue, std::less<>> fields;

  [[nodiscard]] bool has(std::string_view key) const;
  /// The "event" discriminator ("" when absent).
  [[nodiscard]] std::string_view kind() const { return str("event"); }
  /// A null value reads as NaN (the writers' spelling of non-finite).
  [[nodiscard]] double num(std::string_view key, double fallback = 0.0) const;
  [[nodiscard]] std::int64_t integer(std::string_view key,
                                     std::int64_t fallback = 0) const;
  [[nodiscard]] bool boolean(std::string_view key,
                             bool fallback = false) const;
  [[nodiscard]] std::string_view str(std::string_view key,
                                     std::string_view fallback = "") const;
};

/// Parse one line; nullopt on malformed input.
[[nodiscard]] std::optional<ParsedEvent> parse_jsonl_line(
    std::string_view line);

/// Parse a whole file, skipping blank lines. `malformed` (optional)
/// receives the count of lines that failed to parse.
[[nodiscard]] std::vector<ParsedEvent> read_jsonl_file(
    const std::string& path, std::size_t* malformed = nullptr);

}  // namespace slcube::obs
