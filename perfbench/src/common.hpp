// Shared pieces of the perfbench workloads: run options, wall clocks, the
// benchmark's own span log (the traced run's per-layer source), order
// statistics with the tail-reporting rule, and the result record every
// workload returns to main().
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bmp/util/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Worker threads of every Planner the benchmark builds. Fixed, never the
/// hardware default, so a bigger host does not change the pool the
/// numbers were taken with.
inline constexpr std::size_t kPlannerThreads = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured wall budget of one run
  bool trace = false;     ///< per-layer run instead of the end-to-end run
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What one workload run hands back to main(): the contract's result line
/// plus human-readable notes printed above it.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
};

/// Failed correctness checks of one pass, warm-up included; the first few
/// messages are kept for the report.
struct Checks {
  std::uint64_t failures = 0;
  std::vector<std::string> messages;

  void fail(const std::string& message) {
    ++failures;
    if (messages.size() < 5) messages.push_back(message);
  }
  /// Prints the kept messages into `result`; any failure fails the run.
  void report(Result& result) const;
};

/// Records the trace-fidelity verdict: the traced pass must reproduce the
/// untraced pass's deterministic outputs, or the run fails.
void report_fidelity(bool identical, Result& result);

/// Every per-layer metric any workload reports, with its unit, in output
/// order. A traced run prints all of them; a metric its workload does not
/// exercise reads 0.
const std::vector<std::pair<const char*, const char*>>& per_layer_metrics();

/// Median (mean of the middle pair for even sizes); 0 for no samples.
[[nodiscard]] double median(std::vector<double> values);

/// The tail-reporting rule: the highest percentile of the fixed ladder
/// p99.9, p99, p95, p90, p50 that still has at least `kTailMinBeyond`
/// samples strictly above it. `ok` is false when not even p50 qualifies.
/// The ladder is coarse on purpose: between rungs the number of samples
/// beyond grows five- to tenfold, so the chosen rung rests on tens of
/// samples, not on the ten at the edge.
inline constexpr std::size_t kTailMinBeyond = 10;
struct Tail {
  bool ok = false;
  double percentile = 0.0;  ///< e.g. 99.5
  double value = 0.0;
  std::size_t beyond = 0;   ///< samples ranked above the percentile
};
[[nodiscard]] Tail tail_of(std::vector<double> values);

/// Nearest-rank quantile q in [0, 1] of already sorted values.
[[nodiscard]] double sorted_quantile(const std::vector<double>& sorted,
                                     double q);

/// Peak resident set of this process, MiB (getrusage).
[[nodiscard]] double peak_rss_mb();

/// Closed-loop load record of one pass, kept per episode: a run is a
/// sequence of independently seeded episodes, each with its own set-up.
struct Load {
  std::vector<double> op_seconds;     ///< every measured op, pooled
  std::vector<double> setup_seconds;  ///< one per episode
  std::vector<double> episode_busy;   ///< summed op wall per episode
  std::vector<std::size_t> episode_ops;
  std::vector<double> episode_worst;  ///< worst quality ratio per episode
  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;

  void begin_episode() {
    episode_busy.push_back(0.0);
    episode_ops.push_back(0);
    episode_worst.push_back(1.0);
  }
  void record(double seconds, bool ok) {
    op_seconds.push_back(seconds);
    episode_busy.back() += seconds;
    ++episode_ops.back();
    ++attempted;
    if (ok) ++succeeded;
  }
  /// Quality sample of the current episode (warm-up included).
  void quality(double ratio) {
    if (ratio < episode_worst.back()) episode_worst.back() = ratio;
  }
};

/// The seven end-to-end metrics from a load record:
///   setup_s         median episode set-up
///   ops_per_s       median over episodes of ops / summed op wall (checks
///                   and input generation between ops are not charged)
///   latency_p50_ms  pooled median op wall
///   latency_tail_ms pooled, by the tail rule; a tail without enough
///                   samples beyond it is flagged and fails the run
///   success_ratio   ops that passed their checks and were not refused
///   worst_ratio     median over the first `quality_episodes` episodes
///                   of each episode's worst ratio — a fixed episode set,
///                   so it is a deterministic function of the seed
///   peak_rss_mb     peak resident set of the process
void add_end_to_end(const Load& load, std::size_t quality_episodes,
                    Result& result);

/// Runs the episodes of one pass — episode k seeded from fork k of `seed`
/// — and returns the pass wall seconds: exactly `episodes` when positive,
/// otherwise until `budget_s` of wall has gone and at least
/// `min_episodes` have run.
template <typename Body>
double run_episodes(std::uint64_t seed, double budget_s, int episodes,
                    int min_episodes, Body&& body);

/// The benchmark's own spans around each call into a layer. Spans live in
/// memory for the whole traced pass; per-layer numbers are read off them
/// when the pass ends.
class SpanLog {
 public:
  struct Span {
    const char* name = "";  ///< layer-qualified, e.g. "engine.plan"
    std::uint64_t op = 0;   ///< request id shared by one op's spans
    double start_us = 0.0;  ///< since the log's epoch
    double end_us = 0.0;
    [[nodiscard]] double us() const { return end_us - start_us; }
  };

  SpanLog() : epoch_(Clock::now()) {}

  [[nodiscard]] double us_at(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }
  [[nodiscard]] double now_us() const { return us_at(Clock::now()); }
  void add(const char* name, std::uint64_t op, double start_us,
           double end_us) {
    spans_.push_back({name, op, start_us, end_us});
  }
  void add(const char* name, std::uint64_t op, Clock::time_point start,
           Clock::time_point end) {
    add(name, op, us_at(start), us_at(end));
  }
  /// Durations (us) of every span named `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Summed duration (us) of every span; spans never nest, so this is the
  /// wall they cover.
  [[nodiscard]] double covered_us() const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// RAII span; a null log makes it free of clock reads.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t op)
      : log_(log), name_(name), op_(op),
        start_(log != nullptr ? log->now_us() : 0.0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->add(name_, op_, start_, log_->now_us());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  const char* name_;
  std::uint64_t op_;
  double start_;
};

/// FNV-1a digest of a run's deterministic outputs: the trace-fidelity
/// check compares the traced pass's digest with the untraced pass's.
class Digest {
 public:
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xFFu;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void add(double value);
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

template <typename Body>
double run_episodes(std::uint64_t seed, double budget_s, int episodes,
                    int min_episodes, Body&& body) {
  const Clock::time_point start = Clock::now();
  const bmp::util::Xoshiro256 root(seed);
  for (int episode = 0;; ++episode) {
    if (episodes > 0 ? episode >= episodes
                     : episode >= min_episodes && seconds_since(start) >= budget_s) {
      break;
    }
    body(root.fork(static_cast<std::uint64_t>(episode))());
  }
  return seconds_since(start);
}

/// Workload entry points (one translation unit each).
Result run_plan_mix(const Options& options);
Result run_stream_chaos(const Options& options);

}  // namespace perfbench
