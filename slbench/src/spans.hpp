// In-memory spans for the traced run. Each thread owns one SpanLog (no
// sharing, no locks); spans are written out after timing ends. A span
// has a name, a start, an end, the index of its parent in the same log
// (-1 for a root) and the id of the request it belongs to, so a layer's
// self time is its duration minus the time its children cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace slbench {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< string literal
  std::uint64_t request = 0;
  std::int32_t parent = -1;
  std::int64_t start = 0;
  std::int64_t end = 0;
};

class SpanLog {
 public:
  SpanLog(std::string thread, std::size_t capacity)
      : thread_(std::move(thread)), capacity_(capacity) {
    spans_.reserve(capacity);
  }

  [[nodiscard]] bool full() const noexcept {
    return spans_.size() >= capacity_;
  }

  /// Append a finished span; returns its index, or -1 once full (spans
  /// past the capacity are dropped whole, never half-recorded).
  std::int32_t add(const char* name, std::uint64_t request,
                   std::int32_t parent, std::int64_t start, std::int64_t end) {
    if (full()) return -1;
    spans_.push_back({name, request, parent, start, end});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  /// Reserve a parent's slot before its children are known; close()
  /// fills its end.
  std::int32_t open(const char* name, std::uint64_t request,
                    std::int32_t parent, std::int64_t start) {
    return add(name, request, parent, start, start);
  }
  void close(std::int32_t index, std::int64_t end) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].end = end;
  }

  [[nodiscard]] const std::string& thread() const noexcept { return thread_; }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  std::string thread_;
  std::size_t capacity_;
  std::vector<Span> spans_;
};

/// Per-name totals over a set of logs: count, summed duration and summed
/// self time (duration minus the summed duration of direct children).
struct SpanTotals {
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

[[nodiscard]] inline std::map<std::string, SpanTotals> span_totals(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, SpanTotals> out;
  for (const SpanLog* log : logs) {
    const auto& spans = log->spans();
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end - s.start;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      SpanTotals& t = out[spans[i].name];
      const std::int64_t dur = spans[i].end - spans[i].start;
      ++t.count;
      t.total_ms += static_cast<double>(dur) * 1e-6;
      t.self_ms += static_cast<double>(dur - child_ns[i]) * 1e-6;
    }
  }
  return out;
}

}  // namespace slbench
