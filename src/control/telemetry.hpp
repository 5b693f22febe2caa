// Telemetry primitives of the adaptive control plane: the sample structs a
// host feeds the Controller each window, and the EWMA estimator that turns
// noisy per-window observations into stable effective-capacity signals.
//
// Samples are *cumulative* (the dataplane's counters, read on the scenario
// clock); the controller differences them across windows internally, so a
// host never has to keep per-edge bookkeeping of its own. All ids are the
// caller's stable node ids (the runtime uses its population ids) — they
// must survive re-plans, which re-sort planning slots. Ids are >= 0 and
// should be dense: the controller's per-tick scratch is indexed by id.
#pragma once

#include <cstdint>
#include <vector>

namespace bmp::control {

/// Exponentially weighted moving average, seeded by the first observation.
class Ewma {
 public:
  void observe(double value, double alpha) {
    value_ = seeded_ ? alpha * value + (1.0 - alpha) * value_ : value;
    seeded_ = true;
  }
  [[nodiscard]] bool seeded() const { return seeded_; }
  /// Current smoothed value; `fallback` until the first observation.
  [[nodiscard]] double value(double fallback = 1.0) const {
    return seeded_ ? value_ : fallback;
  }

 private:
  double value_ = 0.0;
  bool seeded_ = false;
};

/// One node's cumulative state at a sampling instant.
struct NodeSample {
  int id = 0;             ///< stable caller-side node id (not a plan slot)
  double nominal = 0.0;   ///< capacity the node was granted pre-adaptation
  double granted = 0.0;   ///< capacity the session currently plans against
  double delivered = 0.0; ///< cumulative data delivered *to* this node
  /// Whether this window may judge the node's sustained ratio (alive, and
  /// joined long enough ago that the pipeline-fill transient has passed).
  bool judgeable = true;
};

/// One overlay edge's cumulative pipe telemetry at a sampling instant
/// (dataplane::EdgeStats, re-keyed to stable node ids).
struct EdgeSample {
  int from = 0;
  int to = 0;
  double rate = 0.0;       ///< planned pipe rate currently in service
  double busy_time = 0.0;  ///< summed completed transmission durations
  double completed = 0.0;  ///< data that finished transmitting
  std::uint64_t sent = 0;
  std::uint64_t lost = 0;
  /// Send opportunities offered to the pipe (EdgeStats::attempts). The
  /// liveness signal behind the stale-telemetry guard: a window where both
  /// sent and attempts stand still is *frozen* (collector blackout), not a
  /// window that measured zero — the two must never be conflated.
  std::uint64_t attempts = 0;
};

/// Everything the controller sees at one sampling boundary.
struct TickInputs {
  double now = 0.0;
  double window = 0.0;          ///< seconds since the previous tick
  /// Data each judgeable node was expected to receive this window — the
  /// integral of the stream's emission rate over the window.
  double expected_delta = 0.0;
  double chunk_size = 1.0;      ///< the stream's chunk granularity
  /// Strictly ascending id (determinism); Controller::tick throws
  /// std::invalid_argument otherwise, and on a negative id.
  std::vector<NodeSample> nodes;
  /// Strictly ascending (from, to), both >= 0; checked likewise.
  std::vector<EdgeSample> edges;
};

}  // namespace bmp::control
