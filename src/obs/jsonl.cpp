#include "obs/jsonl.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>

namespace slcube::obs {

void write_quoted(std::ostream& os, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  os << '"';
  std::size_t plain = 0;  // start of the current run of unescaped bytes
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto byte = static_cast<unsigned char>(s[i]);
    if (byte >= 0x20 && byte != '"' && byte != '\\') continue;
    os.write(s.data() + plain, static_cast<std::streamsize>(i - plain));
    plain = i + 1;
    switch (byte) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default: os << "\\u00" << kHex[byte >> 4] << kHex[byte & 0xf];
    }
  }
  os.write(s.data() + plain, static_cast<std::streamsize>(s.size() - plain));
  os << '"';
}

std::ostream& ObjectWriter::key(std::string_view k) {
  if (!first_) os_ << ',';
  first_ = false;
  write_quoted(os_, k);
  return os_ << ':';
}

void ObjectWriter::num(std::string_view k, double v) {
  std::ostream& os = key(k);
  if (std::isfinite(v)) {
    os << v;
  } else {
    os << "null";
  }
}

bool ParsedEvent::has(std::string_view key) const {
  return fields.find(key) != fields.end();
}

double ParsedEvent::num(std::string_view key, double fallback) const {
  const auto it = fields.find(key);
  if (it == fields.end()) return fallback;
  if (const double* d = std::get_if<double>(&it->second)) return *d;
  // Writers emit a non-finite number as null; read it back as NaN.
  if (std::holds_alternative<std::nullptr_t>(it->second)) return std::nan("");
  return fallback;
}

std::int64_t ParsedEvent::integer(std::string_view key,
                                  std::int64_t fallback) const {
  const auto it = fields.find(key);
  if (it == fields.end()) return fallback;
  const double* d = std::get_if<double>(&it->second);
  // Out of int64 range (or NaN) has no integer value; the cast would be UB.
  if (d == nullptr || !(*d >= -0x1p63 && *d < 0x1p63)) return fallback;
  return static_cast<std::int64_t>(*d);
}

bool ParsedEvent::boolean(std::string_view key, bool fallback) const {
  const auto it = fields.find(key);
  if (it == fields.end()) return fallback;
  if (const bool* b = std::get_if<bool>(&it->second)) return *b;
  return fallback;
}

std::string_view ParsedEvent::str(std::string_view key,
                                  std::string_view fallback) const {
  const auto it = fields.find(key);
  if (it == fields.end()) return fallback;
  if (const std::string* s = std::get_if<std::string>(&it->second)) return *s;
  return fallback;
}

namespace {

/// Cursor over one line; every parse_* advances past what it consumed and
/// returns false on malformed input.
struct Cursor {
  std::string_view s;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < s.size() &&
           (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\r')) {
      ++pos;
    }
  }
  [[nodiscard]] bool eat(char c) {
    skip_ws();
    if (pos < s.size() && s[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  [[nodiscard]] bool peek(char c) {
    skip_ws();
    return pos < s.size() && s[pos] == c;
  }
};

bool parse_string(Cursor& c, std::string& out) {
  if (!c.eat('"')) return false;
  out.clear();
  while (c.pos < c.s.size()) {
    const char ch = c.s[c.pos++];
    if (ch == '"') return true;
    if (ch == '\\') {
      if (c.pos >= c.s.size()) return false;
      const char esc = c.s[c.pos++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'u': {
          // write_quoted emits \u00XX for control bytes; decode any ASCII
          // code point, reject the rest (not emitted by our writers).
          if (c.s.size() - c.pos < 4) return false;
          const char* hex = c.s.data() + c.pos;
          unsigned code = 0;
          const auto [end, ec] = std::from_chars(hex, hex + 4, code, 16);
          if (ec != std::errc{} || end != hex + 4 || code >= 0x80) {
            return false;
          }
          c.pos += 4;
          out += static_cast<char>(code);
          break;
        }
        default: return false;
      }
    } else {
      out += ch;
    }
  }
  return false;  // unterminated
}

bool parse_scalar(Cursor& c, JsonValue& out) {
  c.skip_ws();
  if (c.peek('"')) {
    std::string s;
    if (!parse_string(c, s)) return false;
    out = std::move(s);
    return true;
  }
  const std::string_view rest = c.s.substr(c.pos);
  if (rest.starts_with("true")) {
    c.pos += 4;
    out = true;
    return true;
  }
  if (rest.starts_with("false")) {
    c.pos += 5;
    out = false;
    return true;
  }
  if (rest.starts_with("null")) {
    c.pos += 4;
    out = nullptr;
    return true;
  }
  // Copy the numeric token out first: the view is not null-terminated.
  std::size_t end = c.pos;
  while (end < c.s.size() &&
         (std::isdigit(static_cast<unsigned char>(c.s[end])) != 0 ||
          c.s[end] == '-' || c.s[end] == '+' || c.s[end] == '.' ||
          c.s[end] == 'e' || c.s[end] == 'E')) {
    ++end;
  }
  if (end == c.pos) return false;
  const std::string token(c.s.substr(c.pos, end - c.pos));
  char* parsed_end = nullptr;
  const double d = std::strtod(token.c_str(), &parsed_end);
  if (parsed_end != token.c_str() + token.size()) return false;
  c.pos = end;
  out = d;
  return true;
}

bool parse_object(Cursor& c, const std::string& prefix, int depth,
                  ParsedEvent& out) {
  if (depth > 1) return false;  // one level of nesting is the whole dialect
  if (!c.eat('{')) return false;
  if (c.eat('}')) return true;
  for (;;) {
    std::string key;
    if (!parse_string(c, key)) return false;
    if (!c.eat(':')) return false;
    const std::string full =
        prefix.empty() ? std::move(key) : prefix + '.' + key;
    if (c.peek('{')) {
      if (!parse_object(c, full, depth + 1, out)) return false;
    } else {
      JsonValue v;
      if (!parse_scalar(c, v)) return false;
      out.fields.emplace(full, std::move(v));
    }
    if (c.eat('}')) return true;
    if (!c.eat(',')) return false;
  }
}

}  // namespace

std::optional<ParsedEvent> parse_jsonl_line(std::string_view line) {
  ParsedEvent ev;
  Cursor c{line};
  if (!parse_object(c, "", 0, ev)) return std::nullopt;
  c.skip_ws();
  if (c.pos != line.size()) return std::nullopt;  // trailing garbage
  return ev;
}

std::vector<ParsedEvent> read_jsonl_file(const std::string& path,
                                         std::size_t* malformed) {
  std::vector<ParsedEvent> out;
  if (malformed != nullptr) *malformed = 0;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    if (auto ev = parse_jsonl_line(line)) {
      out.push_back(std::move(*ev));
    } else if (malformed != nullptr) {
      ++*malformed;
    }
  }
  return out;
}

}  // namespace slcube::obs
