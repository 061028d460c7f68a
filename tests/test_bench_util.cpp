// bench::Options::try_parse — the testable core of the experiment
// binaries' flag parsing: valid flag sets fill the struct; unknown flags,
// trailing flags with a missing value and numeric values that are not
// plain in-range unsigned decimals are rejected with an error message
// that names the offending flag.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "obs/jsonl.hpp"

namespace slcube::bench {
namespace {

/// argv-style scratch: gtest owns the strings, try_parse sees char**.
struct Argv {
  explicit Argv(std::vector<std::string> words) : strings(std::move(words)) {
    strings.insert(strings.begin(), "bench_test");
    pointers.reserve(strings.size());
    for (auto& s : strings) pointers.push_back(s.data());
  }
  [[nodiscard]] int argc() { return static_cast<int>(pointers.size()); }
  [[nodiscard]] char** argv() { return pointers.data(); }

  std::vector<std::string> strings;
  std::vector<char*> pointers;
};

TEST(BenchUtil, ParsesEveryFlag) {
  Argv a({"--csv", "--audit", "--csv-file", "out.csv", "--jsonl", "t.jsonl",
          "--dim", "9", "--trials", "77", "--seed", "12345", "--threads",
          "3", "--bench-json", "b.json", "--telemetry", "tele.jsonl",
          "--sample-ms", "25"});
  Options o;
  std::string error;
  ASSERT_TRUE(Options::try_parse(a.argc(), a.argv(), o, error)) << error;
  EXPECT_TRUE(o.csv);
  EXPECT_TRUE(o.audit);
  EXPECT_EQ(o.csv_file, "out.csv");
  EXPECT_EQ(o.jsonl_file, "t.jsonl");
  EXPECT_EQ(o.dim, 9u);
  EXPECT_EQ(o.trials, 77u);
  EXPECT_EQ(o.seed, 12345u);
  EXPECT_EQ(o.threads, 3u);
  EXPECT_EQ(o.bench_json, "b.json");
  EXPECT_EQ(o.telemetry_file, "tele.jsonl");
  EXPECT_EQ(o.sample_ms, 25u);
}

TEST(BenchUtil, EmptyCommandLineKeepsDefaults) {
  Argv a({});
  Options o;
  std::string error;
  ASSERT_TRUE(Options::try_parse(a.argc(), a.argv(), o, error));
  EXPECT_FALSE(o.csv);
  EXPECT_FALSE(o.audit);
  EXPECT_EQ(o.trials, 0u);
  EXPECT_EQ(o.dim, 0u);
  EXPECT_EQ(o.seed, 0u);
  EXPECT_EQ(o.threads, 0u);
  EXPECT_TRUE(o.csv_file.empty());
  EXPECT_TRUE(o.jsonl_file.empty());
  EXPECT_TRUE(o.bench_json.empty());
  EXPECT_TRUE(o.telemetry_file.empty());
  EXPECT_EQ(o.sample_ms, 0u);
}

TEST(BenchUtil, RejectsUnknownFlagByName) {
  Argv a({"--trials", "5", "--missions", "6"});
  Options o;
  std::string error;
  EXPECT_FALSE(Options::try_parse(a.argc(), a.argv(), o, error));
  EXPECT_NE(error.find("--missions"), std::string::npos) << error;
  EXPECT_NE(error.find("unknown"), std::string::npos) << error;
}

TEST(BenchUtil, RejectsTrailingFlagMissingItsValue) {
  for (const char* flag : {"--csv-file", "--jsonl", "--dim", "--trials",
                           "--seed", "--threads", "--bench-json",
                           "--telemetry", "--sample-ms"}) {
    Argv a({flag});
    Options o;
    std::string error;
    EXPECT_FALSE(Options::try_parse(a.argc(), a.argv(), o, error)) << flag;
    EXPECT_NE(error.find(flag), std::string::npos) << error;
    EXPECT_NE(error.find("missing its value"), std::string::npos) << error;
  }
}

TEST(BenchUtil, ParseUnsignedAcceptsPlainDecimalsOnly) {
  EXPECT_EQ(parse_unsigned<unsigned>("0"), 0u);
  EXPECT_EQ(parse_unsigned<unsigned>("4294967295"), 4294967295u);
  EXPECT_EQ(parse_unsigned<std::uint64_t>("18446744073709551615"),
            18446744073709551615ull);
  EXPECT_EQ(parse_unsigned<std::uint32_t>("007"), 7u);
  for (const char* bad : {"", "abc", "-1", "+3", " 3", "3 ", "1.5", "12k",
                          "0x10", "1e3", "4294967296"}) {
    EXPECT_EQ(parse_unsigned<unsigned>(bad), std::nullopt) << "'" << bad << "'";
  }
  EXPECT_EQ(parse_unsigned<std::uint64_t>("18446744073709551616"),
            std::nullopt);
  EXPECT_EQ(parse_unsigned<unsigned>(nullptr), std::nullopt);
}

TEST(BenchUtil, RejectsMalformedNumericValuesByFlag) {
  for (const char* flag :
       {"--dim", "--trials", "--seed", "--threads", "--sample-ms"}) {
    for (const char* bad : {"abc", "-1", "+4", "2.5", "8x", ""}) {
      Argv a({flag, bad});
      Options o;
      std::string error;
      EXPECT_FALSE(Options::try_parse(a.argc(), a.argv(), o, error))
          << flag << " '" << bad << "'";
      EXPECT_NE(error.find(flag), std::string::npos) << error;
      EXPECT_NE(error.find("unsigned integer"), std::string::npos) << error;
    }
  }
  // Values past the field's range are rejected, not wrapped.
  Argv wide({"--threads", "4294967296"});
  Options o;
  std::string error;
  EXPECT_FALSE(Options::try_parse(wide.argc(), wide.argv(), o, error));
  Argv seed({"--seed", "18446744073709551615"});
  ASSERT_TRUE(Options::try_parse(seed.argc(), seed.argv(), o, error)) << error;
  EXPECT_EQ(o.seed, 18446744073709551615ull);
}

TEST(BenchUtil, TelemetrySessionIsGatedOnTheFlag) {
  const Options off;
  TelemetrySession none(off);
  EXPECT_FALSE(none.enabled());
  EXPECT_EQ(none.hooks().registry, nullptr);
  EXPECT_EQ(none.hooks().profiler, nullptr);
  EXPECT_EQ(none.hooks().recorder, nullptr);
  none.tick();                         // no-op, not a crash
  EXPECT_TRUE(none.finish(6, 1));      // nothing to write, still OK

  Options on;
  on.telemetry_file = ::testing::TempDir() + "slcube_bench_tele.jsonl";
  TelemetrySession session(on);
  EXPECT_TRUE(session.enabled());
  ASSERT_NE(session.hooks().registry, nullptr);
  session.hooks().registry->counter("gate.count").inc(3);
  session.tick();
  ASSERT_TRUE(session.finish(6, 2));
  {
    // The header line is pinned byte for byte: readers match on it.
    std::ifstream in(on.telemetry_file);
    std::string meta;
    ASSERT_TRUE(std::getline(in, meta));
    EXPECT_EQ(meta,
              "{\"event\":\"telemetry_meta\",\"dim\":6,\"threads\":2,"
              "\"mode\":\"ticks\",\"samples\":1,\"ticks\":1}");
  }
  std::size_t malformed = 0;
  const auto events = obs::read_jsonl_file(on.telemetry_file, &malformed);
  EXPECT_EQ(malformed, 0u);
  ASSERT_GE(events.size(), 2u);
  EXPECT_EQ(events[0].kind(), "telemetry_meta");
  EXPECT_EQ(events[0].integer("dim"), 6);
  EXPECT_EQ(events[0].integer("threads"), 2);
  EXPECT_EQ(events[0].str("mode"), "ticks");
  EXPECT_EQ(events[1].kind(), "ts_sample");
  EXPECT_EQ(events[1].integer("c.gate.count"), 3);
  std::remove(on.telemetry_file.c_str());
  std::remove((on.telemetry_file + ".prom").c_str());
}

TEST(BenchUtil, AuditSinkIsGatedOnTheFlag) {
  Options off;
  EXPECT_EQ(off.make_audit_sink(6), nullptr);
  Options on;
  on.audit = true;
  const auto sink = on.make_audit_sink(6);
  ASSERT_NE(sink, nullptr);
  EXPECT_EQ(finish_audit(sink.get()), 0);  // empty stream audits clean
  EXPECT_EQ(finish_audit(nullptr), 0);
}

}  // namespace
}  // namespace slcube::bench
