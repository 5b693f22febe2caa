// Shared helpers for the experiment binaries.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bmp/obs/json.hpp"
#include "bmp/obs/profiler.hpp"

namespace bmp::benchutil {

/// BENCH_*.json schema version. tools/bench_diff refuses to compare
/// reports across schema versions, so bump this whenever a field changes
/// meaning (adding fields is backward-compatible — the comparator walks
/// the intersection).
inline constexpr int kBenchSchema = 2;

/// Commit id for stamping JSON perf reports, so BENCH_*.json artifacts
/// line up into a trajectory across commits: GITHUB_SHA when CI provides
/// it, `git rev-parse HEAD` for local runs, "unknown" outside a checkout.
inline std::string git_sha() {
  if (const char* env = std::getenv("GITHUB_SHA");
      env != nullptr && *env != '\0') {
    return env;
  }
  std::string sha;
  if (FILE* pipe = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buffer[128];
    if (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) sha = buffer;
    ::pclose(pipe);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  return sha.empty() ? "unknown" : sha;
}

/// Machine-readable bench output: a flat JSON object written next to the
/// human table so CI can archive one BENCH_<name>.json per run and chart
/// the perf trajectory across commits. Insertion order is preserved.
class JsonReport {
 public:
  void add(const std::string& key, double value) {
    // inf/nan are not JSON tokens; a degenerate measurement must not make
    // the whole artifact unparseable.
    if (!std::isfinite(value)) {
      fields_.emplace_back(key, "null");
      return;
    }
    std::ostringstream os;
    os.precision(17);
    os << value;
    fields_.emplace_back(key, os.str());
  }
  void add(const std::string& key, std::uint64_t value) {
    fields_.emplace_back(key, std::to_string(value));
  }
  void add(const std::string& key, int value) {
    fields_.emplace_back(key, std::to_string(value));
  }
  void add_string(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, "\"" + obs::escaped(value) + "\"");
  }
  /// Embeds an already-serialized JSON value verbatim (e.g. the final
  /// obs::to_json metrics snapshot) — the caller vouches for validity.
  void add_raw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
  }

  [[nodiscard]] std::string to_string() const {
    std::string out = "{\n";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      out += "  \"" + obs::escaped(fields_[i].first) +
             "\": " + fields_[i].second;
      if (i + 1 < fields_.size()) out += ",";
      out += "\n";
    }
    out += "}\n";
    return out;
  }

  /// Writes the report; returns false (and prints nothing) on IO failure.
  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << to_string();
    return static_cast<bool>(out);
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Stamps a report with the trajectory header every BENCH_*.json carries:
/// schema version, bench name, commit, and the machine fields bench_diff
/// uses to warn when two reports came from different hardware or build
/// flavors. Call first so the header leads the artifact.
inline void add_header(JsonReport& report, const std::string& bench_name) {
  report.add("schema", kBenchSchema);
  report.add_string("bench", bench_name);
  report.add_string("git_sha", git_sha());
  report.add("machine_cores",
             static_cast<int>(std::thread::hardware_concurrency()));
#if defined(NDEBUG)
  report.add_string("build_type", "release");
#else
  report.add_string("build_type", "debug");
#endif
#if defined(__VERSION__)
  report.add_string("compiler", __VERSION__);
#else
  report.add_string("compiler", "unknown");
#endif
}

/// Embeds the profiler's flat per-phase summary under "profile" — the
/// deterministic counters bench_diff gates exactly (never wall time).
inline void add_profile(JsonReport& report, const obs::Profiler& profiler) {
  if (!profiler.empty()) report.add_raw("profile", profiler.summary_json());
}

/// Parses `--<name> <value>` from argv; empty string when absent.
inline std::string arg_value(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return {};
}

/// True when `flag` (e.g. "--quick") appears in argv.
inline bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

/// The observability CLI every bench/example binary shares:
///   --quick            reduced problem sizes (bench-specific meaning)
///   --json <path>      machine-readable BENCH_*.json report
///   --trace <path>     Perfetto/Chrome trace of the run
///   --profile <path>   attribution profile: JSON report at <path>, a
///                      flamegraph-ready collapsed stack beside it, and a
///                      top-N table on stdout
///   --metrics <path>   final metrics snapshot in Prometheus exposition
///                      format (binaries with a metrics registry)
///   --lineage <path>   per-chunk delivery lineage dump plus the
///                      critical-path blame table ("<path>.blame.json";
///                      binaries that thread an obs::LineageSink)
/// Binaries parse once up front and thread `cli.profiler()` into their
/// configs; a null return keeps every hook on its disabled branch.
struct CommonCli {
  bool quick = false;
  std::string json;
  std::string trace;
  std::string profile;
  std::string metrics;
  std::string lineage;
  obs::Profiler prof;

  // The profiler member makes this non-copyable; parse in place.
  CommonCli(int argc, char** argv)
      : quick(has_flag(argc, argv, "--quick")),
        json(arg_value(argc, argv, "--json")),
        trace(arg_value(argc, argv, "--trace")),
        profile(arg_value(argc, argv, "--profile")),
        metrics(arg_value(argc, argv, "--metrics")),
        lineage(arg_value(argc, argv, "--lineage")) {}

  /// The profiler to thread into configs; null when --profile is absent so
  /// disabled runs pay nothing but the null checks.
  [[nodiscard]] obs::Profiler* profiler() {
    return profile.empty() ? nullptr : &prof;
  }

  /// Writes the --profile artifacts (JSON + "<path>.collapsed") and prints
  /// the attribution table. No-op without --profile. Returns false on IO
  /// failure.
  bool write_profile() {
    if (profile.empty()) return true;
    bool ok = prof.write_json(profile);
    ok = prof.write_collapsed(collapsed_path()) && ok;
    std::cout << prof.attribution_table();
    if (!ok) std::cerr << "failed to write profile to " << profile << "\n";
    return ok;
  }

  /// "<profile>.collapsed", with a ".json" suffix swapped out first.
  [[nodiscard]] std::string collapsed_path() const {
    std::string base = profile;
    const std::string suffix = ".json";
    if (base.size() > suffix.size() &&
        base.compare(base.size() - suffix.size(), suffix.size(), suffix) == 0) {
      base.resize(base.size() - suffix.size());
    }
    return base + ".collapsed";
  }
};

/// Wrap-up for binaries without a bespoke report: writes the minimal
/// BENCH_*.json (header + status + profile) when --json was given, emits
/// the --profile artifacts, and folds IO failures into the exit code.
inline int finish(CommonCli& cli, const std::string& name, bool ok) {
  if (!cli.json.empty()) {
    JsonReport json;
    add_header(json, name);
    json.add_string("status", ok ? "ok" : "warn");
    add_profile(json, cli.prof);
    if (json.write(cli.json)) {
      std::cout << "json written to " << cli.json << "\n";
    } else {
      std::cout << "[WARN] could not write " << cli.json << "\n";
      ok = false;
    }
  }
  if (!cli.write_profile()) ok = false;
  return ok ? 0 : 1;
}

/// CI regression-gate self-test hook: sleeps BMP_PERF_SELFTEST_SLEEP_US
/// microseconds (default none) inside one bench phase, so the perf-gate
/// job can inject a deliberate slowdown and assert that tools/bench_diff
/// catches it. Never set outside that self-test.
inline void selftest_sleep() {
  static const int us = [] {
    const char* value = std::getenv("BMP_PERF_SELFTEST_SLEEP_US");
    return value == nullptr ? 0 : std::atoi(value);
  }();
  if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
}

/// What paired_ab_overhead measured.
struct AbEstimate {
  double ratio = 1.0;     ///< median per-round on/off wall ratio
  double on_wall = 0.0;   ///< min on-variant wall (seconds), for scale
  double off_wall = 0.0;  ///< min off-variant wall (seconds), for scale
};

/// The paired A/B wall estimator every overhead gate shares. Each round
/// runs both variants back to back, on first in even rounds and off first
/// in odd ones, so drift within a round cannot tax one side. The estimate
/// is the *median of per-round ratios*: the two runs of a round share the
/// host's clock state, so frequency scaling and slow ambient drift cancel
/// out of the ratio — which a min-of-mins across rounds cannot claim, as a
/// clocked-down stretch inflates every wall in it, mins included. The
/// median then sheds the rounds where a scheduler spike landed on one
/// side. While the estimate exceeds `bar`, up to two retries each add
/// `rounds` more rounds and recompute the median over all of them.
/// `run(on, round)` performs one run and returns its wall seconds; `round`
/// counts up across retries.
template <typename Run>
AbEstimate paired_ab_overhead(int rounds, double bar, Run&& run) {
  AbEstimate estimate;
  std::vector<double> ratios;
  int round = 0;
  const auto measure = [&] {
    for (const int end = round + rounds; round < end; ++round) {
      const bool on_first = round % 2 == 0;
      const double first = run(on_first, round);
      const double second = run(!on_first, round);
      const double on = on_first ? first : second;
      const double off = on_first ? second : first;
      estimate.on_wall =
          estimate.on_wall == 0.0 ? on : std::min(estimate.on_wall, on);
      estimate.off_wall =
          estimate.off_wall == 0.0 ? off : std::min(estimate.off_wall, off);
      if (off > 0.0) ratios.push_back(on / off);
    }
    std::sort(ratios.begin(), ratios.end());
    estimate.ratio = ratios.empty() ? 1.0 : ratios[ratios.size() / 2];
  };
  measure();
  for (int retry = 0; retry < 2 && estimate.ratio > bar; ++retry) measure();
  return estimate;
}

}  // namespace bmp::benchutil
