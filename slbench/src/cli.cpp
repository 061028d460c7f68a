#include "cli.hpp"

#include <charconv>
#include <set>

namespace slbench {

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kServeRead:
      return "serve-read";
    case Workload::kChurnWrite:
      return "churn-write";
    case Workload::kMegaBurst:
      return "mega-burst";
  }
  return "unknown";
}

namespace {

/// Decimal digits only (no sign, no space, no prefix), no overflow.
std::optional<std::uint64_t> parse_u64(const std::string& text) {
  if (text.empty()) return std::nullopt;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
  }
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

std::optional<CliOptions> parse_cli(const std::vector<std::string>& args,
                                    std::string& error) {
  CliOptions opt;
  std::set<std::string> seen;
  for (std::size_t i = 0; i < args.size(); i += 2) {
    const std::string& flag = args[i];
    if (!seen.insert(flag).second) {
      error = "flag " + flag + " given twice";
      return std::nullopt;
    }
    if (i + 1 >= args.size()) {
      error = "flag " + flag + " is missing its value";
      return std::nullopt;
    }
    const std::string& value = args[i + 1];
    if (flag == "--workload") {
      if (value == "serve-read") {
        opt.workload = Workload::kServeRead;
      } else if (value == "churn-write") {
        opt.workload = Workload::kChurnWrite;
      } else if (value == "mega-burst") {
        opt.workload = Workload::kMegaBurst;
      } else {
        error = "unknown workload '" + value + "'";
        return std::nullopt;
      }
    } else if (flag == "--seed") {
      const auto seed = parse_u64(value);
      if (!seed) {
        error = "--seed must be a decimal integer in [0, 2^64)";
        return std::nullopt;
      }
      opt.seed = *seed;
    } else if (flag == "--seconds") {
      const auto seconds = parse_u64(value);
      if (!seconds || *seconds == 0 || *seconds > kMaxSeconds) {
        error = "--seconds must be an integer in [1, 3600]";
        return std::nullopt;
      }
      opt.seconds = static_cast<unsigned>(*seconds);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        error = "--trace must be 0 or 1";
        return std::nullopt;
      }
      opt.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "small") {
        error = "--size must be full or small";
        return std::nullopt;
      }
      opt.small = value == "small";
    } else if (flag == "--trace-dir") {
      if (value.empty()) {
        error = "--trace-dir must not be empty";
        return std::nullopt;
      }
      opt.trace_dir = value;
    } else {
      error = "unknown flag '" + flag + "'";
      return std::nullopt;
    }
  }
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (seen.count(required) == 0) {
      error = std::string("missing required flag ") + required;
      return std::nullopt;
    }
  }
  return opt;
}

}  // namespace slbench
