// TraceSink — structured, deterministic tracing for the five-layer loop.
//
// Events carry sim-time timestamps (the scenario clock), not wall time, so
// two runs of the same scenario produce byte-identical traces regardless of
// host load or planner thread count. Wall-clock durations can be opted in
// (`TraceConfig::wall_durations`) for profiling; they ride along as an
// `wall_us` arg and deliberately break byte-identity, mirroring the
// `timing.*` convention in obs::ShardRegistry.
//
// The sink is thread-safe (the planner pool may race with the event loop),
// but determinism is an append-order contract owned by the call sites: the
// runtime's event loop is single-threaded, and `Planner::plan_batch` emits
// its per-item spans after the worker barrier in work-item index order, so
// the sequence numbers assigned at append are reproducible.
//
// Output is Chrome trace-event JSON (`{"traceEvents":[...]}`) loadable in
// Perfetto / chrome://tracing. Lanes map to `tid` so the subsystems render
// as parallel tracks.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <string>
#include <vector>

namespace bmp::obs {

/// Logical track ("thread" in the trace-viewer sense) an event belongs to.
enum class Lane : int {
  kRuntime = 0,    ///< scenario event loop
  kPlanner = 1,    ///< Planner::plan / plan_batch
  kVerify = 2,     ///< flow::Verifier tiers
  kSession = 3,    ///< Session repair / adapt
  kBroker = 4,     ///< capacity admissions and renegotiations
  kExecution = 5,  ///< chunk lifecycle (sampled)
  kControl = 6,    ///< controller boundaries and directives
  kLineage = 7,    ///< critical-path blame segments (lineage analysis)
};

[[nodiscard]] const char* to_string(Lane lane);

struct TraceConfig {
  /// Hard cap on retained events; appends past it are counted as drops so
  /// a runaway scenario degrades to a truncated trace, not OOM.
  std::size_t max_events = 1u << 20;
  /// Attach wall-clock durations (`wall_us` arg) to spans that measure
  /// them. Off by default: wall time is nondeterministic and would break
  /// the byte-identity contract the replay tests assert on.
  bool wall_durations = false;
};

/// One key/value pair for an event's `args` object, pre-rendered to JSON
/// at the call site (which only runs when the sink pointer is non-null).
struct TraceArg {
  TraceArg(const char* k, double value);
  TraceArg(const char* k, int value);
  TraceArg(const char* k, std::uint64_t value);
  TraceArg(const char* k, bool value);
  TraceArg(const char* k, const char* value);

  const char* key;
  std::string json;  ///< rendered value, e.g. `3.25`, `true`, `"oracle"`
};

class TraceSink {
 public:
  explicit TraceSink(TraceConfig config = {});

  /// Ambient sim-time for events that don't pass an explicit timestamp.
  /// The runtime event loop advances this as it dispatches.
  void set_clock(double sim_seconds);
  [[nodiscard]] double clock() const;
  [[nodiscard]] bool wall_durations() const { return config_.wall_durations; }

  /// Complete span ("ph":"X") at the ambient clock. `wall_us < 0` means no
  /// wall measurement (the deterministic default).
  void complete(Lane lane, const char* cat, const char* name,
                std::initializer_list<TraceArg> args = {},
                double wall_us = -1.0);
  /// Complete span at an explicit sim time with an explicit sim duration.
  void complete_at(Lane lane, const char* cat, const char* name,
                   double sim_time, double sim_duration,
                   std::initializer_list<TraceArg> args = {},
                   double wall_us = -1.0);
  /// Instant event ("ph":"i") at the ambient clock.
  void instant(Lane lane, const char* cat, const char* name,
               std::initializer_list<TraceArg> args = {});
  /// Instant event at an explicit sim time.
  void instant_at(Lane lane, const char* cat, const char* name,
                  double sim_time, std::initializer_list<TraceArg> args = {});

  [[nodiscard]] std::size_t events() const;
  /// Number of complete spans (what CI asserts is nonzero).
  [[nodiscard]] std::size_t spans() const;
  [[nodiscard]] std::uint64_t dropped() const;

  /// Full trace as Chrome trace-event JSON. Deterministic: events render
  /// in append order with their sequence numbers.
  [[nodiscard]] std::string to_json() const;
  /// Writes to_json() to `path`; returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  struct Event {
    std::uint64_t seq;
    int lane;
    char phase;  // 'X' or 'i'
    const char* cat;
    const char* name;
    double ts_us;
    double dur_us;   // 'X' only
    double wall_us;  // < 0: absent
    std::string args;  // rendered pairs without braces, "" when empty
  };

  void append(Lane lane, char phase, const char* cat, const char* name,
              double sim_time, double sim_duration, double wall_us,
              std::initializer_list<TraceArg> args);

  TraceConfig config_;
  mutable std::mutex mutex_;
  double clock_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dropped_ = 0;
  std::size_t span_count_ = 0;
  std::vector<Event> events_;
};

/// Wall-clock stopwatch that only arms itself when `sink` is non-null and
/// opted into wall durations — the deterministic path never reads the
/// steady clock.
class WallTimer {
 public:
  explicit WallTimer(const TraceSink* sink);
  /// Elapsed microseconds, or -1 when unarmed (caller passes it straight
  /// through as a span's `wall_us`).
  [[nodiscard]] double elapsed_us() const;

 private:
  bool armed_;
  std::uint64_t start_ns_ = 0;
};

}  // namespace bmp::obs
