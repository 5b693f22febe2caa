// Profiler — hierarchical performance attribution for the five-layer loop.
//
// Where TraceSink answers *when* (a timeline of spans), the Profiler answers
// *where the work goes*: every instrumented site records deterministic work
// counters (max-flow solves, BFS rounds, LP pivots, scheduler probes, cache
// hits, graph copies, ...) under a phase path like
// "runtime/session/churn" or "verify/tier2_maxflow". Phases aggregate into
// a stable tree keyed by path; sums of counters are commutative, and the
// exports walk a sorted map — so the JSON report and the collapsed-stack
// text are byte-identical across runs *and across planner thread counts*.
//
// The profiler records exact work counters only. Wall-clock time lives in
// the `timing.*` metrics and `TraceConfig::wall_durations`, which break
// byte-identity by design; the profiler's exports never do.
//
// Hook convention (obs/hooks.hpp): layers get the profiler through
// obs::Hooks, a raw null-by-default pointer, and pay exactly one branch
// per site when profiling is off. Sites pass the *full* phase path — there
// is no ambient thread-local stack, so a worker-pool site attributes to
// the same path from any thread.
//
// Exports:
//   * to_json()            nested phase tree (schema-versioned)
//   * to_collapsed()       pprof collapsed-stack lines "a;b;c <work>",
//                          flamegraph.pl / speedscope ready
//   * summary_json()       flat per-phase object for BENCH_*.json embedding
//   * attribution_table()  human top-N table for `--profile` binaries
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace bmp::obs {

class Profiler {
 public:
  Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// One entry into `phase` (increments its call count). Counters are
  /// independent — a phase may have counts without calls and vice versa.
  void enter(std::string_view phase);
  /// Adds `delta` to `phase`'s named counter. Thread-safe; sums are
  /// commutative, so concurrent sites aggregate deterministically.
  void count(std::string_view phase, std::string_view counter,
             std::uint64_t delta = 1);

  [[nodiscard]] bool empty() const;
  [[nodiscard]] std::size_t phase_count() const;
  [[nodiscard]] std::uint64_t calls(std::string_view phase) const;
  [[nodiscard]] std::uint64_t counter(std::string_view phase,
                                      std::string_view name) const;
  /// Sum of one named counter across every phase.
  [[nodiscard]] std::uint64_t total(std::string_view counter) const;
  /// A phase's work units: the sum of its counter values, or its call
  /// count when it has no counters — the weight the exports rank by.
  [[nodiscard]] std::uint64_t work(std::string_view phase) const;
  [[nodiscard]] std::uint64_t total_work() const;

  /// Nested phase tree as JSON (sorted by path segment — deterministic).
  [[nodiscard]] std::string to_json() const;
  /// pprof-style collapsed stacks: one line per recorded phase,
  /// "seg1;seg2;seg3 <work>", sorted by path. Feed to flamegraph.pl or
  /// paste into speedscope.
  [[nodiscard]] std::string to_collapsed() const;
  /// Flat {"phases":{path:{calls,work,counters}},"total_work":N} object for
  /// embedding in BENCH_*.json; committed baselines gate on it exactly
  /// across machines.
  [[nodiscard]] std::string summary_json() const;
  /// Human attribution table: top `top_n` phases by work share.
  [[nodiscard]] std::string attribution_table(std::size_t top_n = 12) const;

  bool write_json(const std::string& path) const;
  bool write_collapsed(const std::string& path) const;

  void clear();

 private:
  struct Phase {
    std::uint64_t calls = 0;
    /// Transparent comparator: lookups by string_view build no temporary.
    std::map<std::string, std::uint64_t, std::less<>> counters;
  };

  [[nodiscard]] static std::uint64_t work_of(const Phase& phase);

  mutable std::mutex mutex_;
  /// Keyed by '/'-separated phase path; ordered so every export walk is
  /// independent of insertion (and therefore scheduling) order.
  std::map<std::string, Phase, std::less<>> phases_;
};

/// `PhaseScope scope(profiler, "a/b")` counts one call into the phase when
/// it is constructed (one branch with a null profiler). Nothing happens at
/// scope exit: the profiler keeps work counters, not time.
class PhaseScope {
 public:
  PhaseScope(Profiler* profiler, const char* phase) {
    if (profiler != nullptr) profiler->enter(phase);
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;
};

}  // namespace bmp::obs
