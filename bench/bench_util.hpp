// Shared plumbing for the experiment binaries: flag parsing (--csv emits
// machine-readable output on stdout, --csv-file writes the same CSV to a
// file in the same run, --jsonl streams per-point obs events, --audit
// streams the same events through the invariant-checking AuditSink,
// --dim/--trials/--seed override binary defaults, and --threads sets the
// sweep-engine worker count — results are bit-identical for every value;
// numeric values parse strictly as unsigned decimals) and table emission.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <system_error>
#include <type_traits>

#include "common/table.hpp"
#include "obs/audit.hpp"
#include "obs/jsonl.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace slcube::bench {

/// Strict decimal parse of an unsigned flag value: the whole string must
/// be digits and fit in T. Signs, spaces, fractions, suffixes, hex and
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

/// Consume the value after flag argv[i] (advancing i) and parse it with
/// parse_unsigned into `out`. On a missing or malformed value returns
/// false with `error` naming the flag.
template <typename T>
[[nodiscard]] bool take_unsigned(int argc, char** argv, int& i, T& out,
                                 std::string& error) {
  const char* const flag = argv[i];
  if (i + 1 >= argc) {
    error = std::string("flag ") + flag + " is missing its value";
    return false;
  }
  const char* const text = argv[++i];
  const auto parsed = parse_unsigned<T>(text);
  if (!parsed) {
    error = std::string("flag ") + flag +
            " needs an unsigned integer in range, got '" + text + "'";
    return false;
  }
  out = *parsed;
  return true;
}

struct Options {
  bool csv = false;
  /// Tee every trace event through an obs::AuditSink so the bench
  /// self-verifies the paper invariants while it measures.
  bool audit = false;
  unsigned trials = 0;     ///< 0 = binary default
  unsigned dim = 0;        ///< 0 = binary default
  std::uint64_t seed = 0;  ///< 0 = binary default
  /// Sweep-engine workers: 0 = one per hardware thread, 1 = serial.
  /// Changes wall time only, never results.
  unsigned threads = 0;
  std::string csv_file;    ///< empty = no CSV file artifact
  std::string jsonl_file;  ///< empty = no JSONL trace artifact
  std::string bench_json;  ///< empty = no summary JSON artifact
  /// Telemetry recording (empty = off): the time-series + stage JSONL
  /// lands here, the final Prometheus scrape in "<file>.prom".
  std::string telemetry_file;
  /// Cadence of the telemetry sampler thread; 0 = explicit ticks only
  /// (deterministic output, the default). Ignored without --telemetry.
  unsigned sample_ms = 0;

  [[nodiscard]] static const char* usage() {
    return " [--csv] [--csv-file F] [--jsonl F] [--audit] [--dim N]"
           " [--trials N] [--seed S] [--threads N] [--bench-json F]"
           " [--telemetry F] [--sample-ms N]";
  }

  /// Testable core of parse(): fills `out` and returns true, or returns
  /// false with `error` naming the offending flag (unknown flag, a
  /// trailing flag missing its value argument, or a numeric value that
  /// parse_unsigned rejects).
  [[nodiscard]] static bool try_parse(int argc, char** argv, Options& out,
                                      std::string& error) {
    const auto value = [&](int& i, const char** v) {
      if (i + 1 >= argc) {
        error = std::string("flag ") + argv[i] + " is missing its value";
        return false;
      }
      *v = argv[++i];
      return true;
    };
    const char* v = nullptr;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--csv") == 0) {
        out.csv = true;
      } else if (std::strcmp(argv[i], "--audit") == 0) {
        out.audit = true;
      } else if (std::strcmp(argv[i], "--csv-file") == 0) {
        if (!value(i, &v)) return false;
        out.csv_file = v;
      } else if (std::strcmp(argv[i], "--jsonl") == 0) {
        if (!value(i, &v)) return false;
        out.jsonl_file = v;
      } else if (std::strcmp(argv[i], "--dim") == 0) {
        if (!take_unsigned(argc, argv, i, out.dim, error)) return false;
      } else if (std::strcmp(argv[i], "--trials") == 0) {
        if (!take_unsigned(argc, argv, i, out.trials, error)) return false;
      } else if (std::strcmp(argv[i], "--seed") == 0) {
        if (!take_unsigned(argc, argv, i, out.seed, error)) return false;
      } else if (std::strcmp(argv[i], "--threads") == 0) {
        if (!take_unsigned(argc, argv, i, out.threads, error)) return false;
      } else if (std::strcmp(argv[i], "--bench-json") == 0) {
        if (!value(i, &v)) return false;
        out.bench_json = v;
      } else if (std::strcmp(argv[i], "--telemetry") == 0) {
        if (!value(i, &v)) return false;
        out.telemetry_file = v;
      } else if (std::strcmp(argv[i], "--sample-ms") == 0) {
        if (!take_unsigned(argc, argv, i, out.sample_ms, error)) return false;
      } else {
        error = std::string("unknown flag '") + argv[i] + "'";
        return false;
      }
    }
    return true;
  }

  /// Parse or die: prints the error and a usage line, then exits 2.
  static Options parse(int argc, char** argv) {
    Options o;
    std::string error;
    if (!try_parse(argc, argv, o, error)) {
      std::cerr << argv[0] << ": " << error << "\nusage: " << argv[0]
                << usage() << '\n';
      std::exit(2);
    }
    return o;
  }

  /// JSONL sink for --jsonl, or null when the flag is absent — the raw
  /// pointer of the result is safe to hand to SweepConfig::trace /
  /// run_rounds_sweep either way. The file is truncated on open.
  [[nodiscard]] std::unique_ptr<obs::JsonlSink> make_jsonl_sink() const {
    if (jsonl_file.empty()) return nullptr;
    return std::make_unique<obs::JsonlSink>(jsonl_file);
  }

  /// AuditSink for --audit (dimension-aware checks enabled), or null
  /// when the flag is absent.
  [[nodiscard]] std::unique_ptr<obs::AuditSink> make_audit_sink(
      unsigned dimension) const {
    if (!audit) return nullptr;
    obs::AuditConfig config;
    config.dimension = dimension;
    return std::make_unique<obs::AuditSink>(config);
  }
};

/// Close out a --audit run: print the verdict (with violation details on
/// failure) and return the process exit code — 0 clean or no audit,
/// 1 when any invariant broke, so audited benches fail loudly in CI.
inline int finish_audit(obs::AuditSink* audit) {
  if (audit == nullptr) return 0;
  audit->finish();
  const obs::AuditReport report = audit->report();
  std::cout << "audit: " << report.events << " event(s), " << report.routes
            << " route(s), " << report.gs_waves << " GS wave(s) — ";
  if (report.clean()) {
    std::cout << "clean\n";
    return 0;
  }
  std::cout << report.violations_total << " VIOLATION(S)\n";
  for (const auto& v : report.details) {
    std::cout << "  [" << obs::to_string(v.kind) << "] " << v.detail << '\n';
  }
  return 1;
}

/// One --telemetry recording for the lifetime of a bench run: owns the
/// registry, profiler, and recorder when the flag is set, and nothing at
/// all when it isn't — hooks() then hands out null pointers and every
/// instrumented call site stays on its untelemetered path. finish()
/// writes the flight record: one "telemetry_meta" line, the ts_sample
/// time series (wall times omitted in explicit-tick mode so the file is
/// byte-identical across --threads), the merged stage tree, and a final
/// Prometheus scrape next to it in "<file>.prom".
class TelemetrySession {
 public:
  explicit TelemetrySession(const Options& options)
      : file_(options.telemetry_file) {
    if (file_.empty()) return;
    registry_ = std::make_unique<obs::Registry>();
    profiler_ = std::make_unique<obs::Profiler>();
    obs::RecorderOptions rec;
    rec.sample_interval_ms = options.sample_ms;
    recorder_ = std::make_unique<obs::TimeSeriesRecorder>(*registry_, rec);
    recorder_->start();  // no-op unless --sample-ms > 0
  }

  [[nodiscard]] bool enabled() const { return recorder_ != nullptr; }

  /// The hooks to thread into sweep configs / EngineOptions; all null
  /// when telemetry is off.
  [[nodiscard]] obs::InstrumentationHooks hooks() const {
    obs::InstrumentationHooks h;
    h.registry = registry_.get();
    h.profiler = profiler_.get();
    h.recorder = recorder_.get();
    return h;
  }

  /// Deterministic sample point; call at barriers the bench controls.
  void tick() const {
    if (recorder_ != nullptr) recorder_->tick();
  }

  /// Stop sampling and write the telemetry artifacts. Returns false (with
  /// a message on stderr) if the output file cannot be opened.
  bool finish(unsigned dim, unsigned threads) {
    if (!enabled()) return true;
    recorder_->stop();
    std::ofstream out(file_, std::ios::trunc);
    if (!out) {
      std::cerr << "cannot open " << file_ << " for writing\n";
      return false;
    }
    {
      obs::ObjectWriter meta(out);
      meta.str("event", "telemetry_meta");
      meta.num("dim", dim);
      meta.num("threads", threads);
      meta.str("mode", recorder_->timed() ? "timed" : "ticks");
      meta.num("samples", recorder_->size());
      meta.num("ticks", recorder_->total_ticks());
    }
    out << '\n';
    obs::write_timeseries_jsonl(out, recorder_->samples(),
                                /*include_wall_time=*/recorder_->timed());
    obs::write_stage_jsonl(out, profiler_->report());
    std::ofstream prom(file_ + ".prom", std::ios::trunc);
    if (prom) obs::write_prometheus(prom, registry_->scrape());
    return true;
  }

 private:
  std::string file_;
  std::unique_ptr<obs::Registry> registry_;
  std::unique_ptr<obs::Profiler> profiler_;
  std::unique_ptr<obs::TimeSeriesRecorder> recorder_;
};

/// Human table (or CSV with --csv) to stdout, plus a CSV file artifact
/// when --csv-file is set — both from the single run. The first emit of
/// the process truncates the file; later emits append, so binaries that
/// print two tables produce the same concatenated CSV that capturing
/// `--csv` stdout used to.
inline void emit(const Table& table, const Options& options) {
  if (options.csv) {
    table.write_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << '\n';
  if (!options.csv_file.empty()) {
    static bool appending = false;
    std::ofstream out(options.csv_file,
                      appending ? std::ios::app : std::ios::trunc);
    if (!out) {
      std::cerr << "cannot open " << options.csv_file << " for writing\n";
      std::exit(2);
    }
    if (appending) out << '\n';
    appending = true;
    table.write_csv(out);
  }
}

}  // namespace slcube::bench
