// Strict command-line parsing for the benchmark binary. Every malformed,
// negative, overflowing or out-of-range value, every unknown flag or
// workload and every repeated flag is rejected (exit code 2 with a usage
// line) instead of silently becoming a default.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace slbench {

enum class Workload { kServeRead, kChurnWrite, kMegaBurst };

[[nodiscard]] const char* to_string(Workload w);

struct CliOptions {
  Workload workload = Workload::kServeRead;
  std::uint64_t seed = 0;
  unsigned seconds = 0;
  bool trace = false;
  /// `--size small` shrinks each cube (for the benchmark's own tests).
  bool small = false;
  /// Where a traced run writes its spans (empty: spans are not written).
  std::string trace_dir;
};

inline constexpr unsigned kMaxSeconds = 3600;

inline constexpr const char* kUsage =
    "usage: slbench --workload serve-read|churn-write|mega-burst "
    "--seed N --seconds 1..3600 --trace 0|1 [--size full|small] "
    "[--trace-dir DIR]";

/// Parse argv (argv[0] excluded). On failure returns nullopt and sets
/// `error` to a one-line reason.
[[nodiscard]] std::optional<CliOptions> parse_cli(
    const std::vector<std::string>& args, std::string& error);

}  // namespace slbench
