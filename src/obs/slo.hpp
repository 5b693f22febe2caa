// SloMonitor — deterministic per-channel SLO evaluation on the control
// sample grid.
//
// Three SLIs, all computed from scenario-clock telemetry (never wall
// time, so two runs — at any planner thread count — produce byte-identical
// alert sequences):
//   * worst-node sustained ratio: min over judgeable nodes of delivered
//     data / design-rate integral (the finalize_stream measure, sampled
//     live at every control tick);
//   * chunk-latency p99 over a sliding window of recent deliveries;
//   * time-to-recover: once a control directive fires, the sustained SLI
//     must climb back over its target within kRecoverTimeout seconds.
//
// Alerting is multi-window burn-rate in the SRE sense: each tick scores
// "violating" when any SLI misses its target; the monitor keeps a short
// and a long window of tick outcomes and transitions
//   ok   -> warn  when the short window burns past kWarnBurn,
//   warn -> page  when the short window burns past kPageBurn AND the long
//                 one past kWarnBurn,
//   back down as the burn rates clear.
// The targets, windows and burn thresholds are slo.cpp constants.
// Every transition appends an SloAlert (bounded ring, drop counter)
// carrying the violating window sample, and is mirrored into the flight
// recorder (kind "slo"), so a page links straight to the black box.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace bmp::obs {

class FlightRecorder;

struct SloConfig {
  std::size_t latency_window = 512;  ///< recent deliveries for the p99 SLI
};

/// Throws std::invalid_argument when config.latency_window is 0; the
/// SloMonitor constructor and the runtime run it.
void check_config(const SloConfig& config);

enum class SloState : int { kOk = 0, kWarn = 1, kPage = 2 };

[[nodiscard]] const char* to_string(SloState state);

/// One control-tick observation of every SLI.
struct SloSample {
  double time = 0.0;
  double sustained_worst = 1.0;  ///< 1.0 when no node is judgeable yet
  double latency_p99 = 0.0;
  double recover_wait = 0.0;     ///< seconds since the oldest open directive
  bool violating_sustained = false;
  bool violating_latency = false;
  bool violating_recover = false;
  [[nodiscard]] bool violating() const {
    return violating_sustained || violating_latency || violating_recover;
  }
  /// The SLI that tripped (worst-first: sustained, recover, latency).
  [[nodiscard]] const char* worst_sli() const;
};

/// One state transition, with the evidence that caused it.
struct SloAlert {
  std::uint64_t seq = 0;
  double time = 0.0;
  SloState from = SloState::kOk;
  SloState to = SloState::kOk;
  std::string sli;        ///< violating SLI (or "clear" on downgrades)
  double short_burn = 0.0;
  double long_burn = 0.0;
  SloSample sample;       ///< the tick sample that sealed the transition
};

class SloMonitor {
 public:
  /// Throws what check_config(config) throws.
  SloMonitor(int channel, SloConfig config = {},
             FlightRecorder* recorder = nullptr);

  /// Feed one delivered chunk's latency (arrival - emission, seconds).
  /// Throws std::invalid_argument on a non-finite value.
  void observe_latency(double latency);
  /// The latency SLI: nearest-rank p99 over the last
  /// config.latency_window observed latencies (0.0 before any).
  [[nodiscard]] double latency_p99() const;
  /// Arms the time-to-recover SLI; called when a directive is applied.
  /// Re-arming while already armed keeps the earlier deadline.
  void on_directive(double time);

  /// Evaluates one control tick. `sustained_worst` is the worst judgeable
  /// node's sustained ratio (pass 1.0 when nothing is judgeable yet).
  /// Returns the state after the tick.
  SloState evaluate(double time, double sustained_worst);

  [[nodiscard]] int channel() const { return channel_; }
  [[nodiscard]] SloState state() const { return state_; }
  [[nodiscard]] const std::vector<SloAlert>& alerts() const { return alerts_; }
  [[nodiscard]] std::uint64_t dropped_alerts() const { return dropped_; }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }
  [[nodiscard]] std::uint64_t pages() const { return pages_; }
  [[nodiscard]] std::uint64_t warns() const { return warns_; }

  /// Deterministic JSON of the alert sequence (the byte-identity surface
  /// the determinism tests compare).
  [[nodiscard]] std::string alerts_json() const;

 private:
  [[nodiscard]] double burn(const std::deque<bool>& window) const;
  void transition(SloState to, const SloSample& sample, double short_burn,
                  double long_burn);

  int channel_;
  SloConfig config_;
  FlightRecorder* recorder_;
  SloState state_ = SloState::kOk;
  /// Ring of the most recent latency_window latencies (exact, unlike the
  /// registry's sketches: the SLI is a sliding window, not a lifetime
  /// distribution).
  std::vector<double> latencies_;
  std::size_t next_latency_ = 0;
  std::deque<bool> short_window_;
  std::deque<bool> long_window_;
  double directive_time_ = -1.0;  ///< < 0: no open recovery deadline
  std::vector<SloAlert> alerts_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t ticks_ = 0;
  std::uint64_t pages_ = 0;
  std::uint64_t warns_ = 0;
};

}  // namespace bmp::obs
