// The control plane's policy engine — the deterministic brain that closes
// the plan -> execute -> observe loop. One Controller watches one stream
// (one channel): each sampling window it differences the dataplane's
// cumulative telemetry, updates per-node and per-edge estimators and
// hysteresis detectors, and escalates deterministically:
//
//   * a node whose egress goodput (observed wire rate x (1 - loss) against
//     the planned pipe rates) degrades is *demoted* — its capacity class
//     drops to the quantized telemetry estimate, and the host patches the
//     overlay via engine::Session::adapt (repair_scheme underneath);
//   * a straggler (delivered-rate integral falling behind the stream's
//     emission integral) is demoted too — a peer that cannot keep up
//     cannot be trusted to relay at full rate;
//   * a degraded edge whose sender is otherwise healthy is *rerouted
//     around*: its planned rate is clamped to the observed goodput and the
//     receiver's deficit is repaired from healthier senders;
//   * when one directive moves the effective platform past the
//     fingerprint-distance bound (L1 capacity drift / granted total), the
//     controller escalates to a full re-plan through the planner cache;
//   * a demoted node whose detectors recover is *restored* (its class
//     raised back to the telemetry estimate), on a longer cooldown.
//
// Every decision is a pure function of the sample stream: key-sorted
// tables, no clocks, no randomness — identical inputs give identical
// directives on any thread count, which the determinism tests replay to
// the byte.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "bmp/control/detector.hpp"
#include "bmp/control/telemetry.hpp"

namespace bmp::control {

/// Fingerprint-distance bound: a directive whose L1 capacity change
/// exceeds this fraction of the granted total escalates from incremental
/// patching to a full re-plan through the planner cache — correlated
/// degradations (a regional brownout) re-plan once, properly, while
/// isolated demotions stay cheap local patches. Full re-plans resplice
/// the whole running overlay, so the bound must not be so low that
/// routine probe traffic triggers them.
inline constexpr double kReplanDrift = 0.05;
/// Nodes are only judged once their join is at least this many seconds
/// old (pipeline fill + rarest-first warm-up grace).
inline constexpr double kWarmupGrace = 1.0;

struct ControllerConfig {
  /// Scenario-clock sampling period (the host ticks on this grid).
  double sample_interval = 0.5;
  double ewma_alpha = 0.35;  ///< window-ratio smoothing for the detectors
  /// Min seconds between actions on the same node/edge (anti-flap). Note
  /// demotions and reroutes fire on detector *transitions* (one action per
  /// trip), so the cooldown only bounds escalations of an ongoing episode.
  double action_cooldown = 0.75;
  /// Min seconds after a node's last action before it may be restored —
  /// longer than action_cooldown so a demote/restore cycle costs at least
  /// one restore_cooldown, the no-flap bound. Every restore probe that
  /// fails (the node is demoted again before its next probe would fire)
  /// doubles the node's probe interval up to a fixed multiple of this
  /// (kRestoreBackoffMax), so a *persistent* degradation converges to a
  /// quiet overlay instead of being re-probed — and re-spliced — forever.
  double restore_cooldown = 1.5;
  /// Restore probes only fire on every restore_grid-th tick, so staggered
  /// per-node probes coalesce into one overlay patch instead of re-splicing
  /// the stream's pipes at every sampling boundary.
  int restore_grid = 4;
};

/// Causal audit record: *why* the controller acted. One entry per
/// demotion, restore, edge clamp and re-plan escalation in a Directive —
/// the telemetry window, the smoothed signal the detector judged, the
/// threshold it crossed and the capacity estimate behind the new class.
/// The host links these into the trace and exports them in ControlReport,
/// so every overlay change is explainable without a re-run. Detector and
/// action names are string literals (stable, cheap to copy).
struct Evidence {
  const char* detector = "";  ///< "egress"|"straggler"|"edge"|"restore"|"drift"
  const char* action = "";    ///< "demote"|"restore"|"clamp"|"replan"
  int node = -1;              ///< subject node (demote/restore), else -1
  int from = -1;              ///< subject edge (clamp), else -1
  int to = -1;
  double window_value = 1.0;  ///< last raw per-window sample of the signal
  double ewma = 1.0;          ///< smoothed signal the detector judged
  double threshold = 0.0;     ///< detector bound crossed (enter; exit for restores)
  double estimate = 1.0;      ///< estimated capacity fraction vs nominal (nodes)
                              ///< or clamped goodput rate (edges)
  double factor_before = 1.0; ///< capacity factor (nodes) / planned rate (edges)
  double factor_after = 1.0;  ///< ... after the action
  double drift = 0.0;         ///< directive L1 drift (replan evidence only)
  int trips = 0;              ///< detector episode count at decision time
};

/// What the controller wants done after a tick. The host applies it via
/// engine::Session::adapt (mapping stable ids to plan slots) and
/// live-patches the running stream.
struct Directive {
  bool act = false;          ///< anything to apply at all
  bool force_replan = false; ///< drift bound exceeded: full re-plan
  /// Stable node id -> effective capacity factor in (0, 1]; ids absent
  /// from the map are at factor 1 (nominal). Always the *complete* current
  /// override set, not a delta.
  std::map<int, double> factors;
  /// Stable-id (from, to, max_rate) clamps for degraded edges.
  std::vector<std::tuple<int, int, double>> edge_limits;
  // Telemetry of the decision, for metrics/logging.
  int demotions = 0;
  int restores = 0;
  int reroutes = 0;
  int stragglers = 0;       ///< nodes currently flagged as stragglers
  int degraded_edges = 0;   ///< edges currently flagged as degraded
  int straggler_trips = 0;  ///< fresh healthy->degraded flips this tick
  int edge_trips = 0;       ///< fresh degraded-edge detections this tick
  int stale_nodes = 0;      ///< nodes skipped this tick (frozen telemetry)
  int stale_edges = 0;      ///< edges skipped this tick (frozen telemetry)
  double drift = 0.0;       ///< L1 capacity drift fraction of this directive
  /// One audit record per action above (plus one for a replan escalation);
  /// non-empty whenever `act` is set.
  std::vector<Evidence> evidence;
};

/// Introspection snapshot of one node's controller state (tests and
/// debugging; not needed to operate the loop).
struct NodeHealth {
  bool known = false;
  double factor = 1.0;
  double egress_ewma = 1.0;
  double sustained_ewma = 1.0;
  bool egress_degraded = false;
  bool straggler = false;
  int egress_trips = 0;
  int straggler_trips = 0;
  int straggler_recoveries = 0;
  int stale_windows = 0;  ///< consecutive frozen windows (blackout length)
};

/// Throws std::invalid_argument on an out-of-range field; the Controller
/// constructor and the runtime (before its first control tick) run it.
void check_config(const ControllerConfig& config);

class Controller {
 public:
  explicit Controller(ControllerConfig config = {});

  /// One sampling boundary: ingest cumulative telemetry, update detectors,
  /// decide. `now` must increase strictly across calls. Throws
  /// std::invalid_argument, before changing any state, on inputs that
  /// break the TickInputs contract (telemetry.hpp): a negative id, nodes
  /// not strictly ascending by id, edges not strictly ascending by
  /// (from, to).
  Directive tick(const TickInputs& inputs);

  [[nodiscard]] const ControllerConfig& config() const { return config_; }

  /// Voids everything measured about `id` while it was unreachable — a
  /// partition heal makes every estimate taken across the cut an artifact
  /// of the cut, not of the node. Detectors, estimators and probe backoff
  /// restart (adjacent edges included); a pending demotion is pardoned on
  /// the next tick through a regular restore action, so the host re-adapts
  /// off an acting directive instead of a silent factor flip. No-op for
  /// nodes the controller has never judged.
  void forgive(int id);

  /// Current capacity factor of a node (1.0 when never demoted).
  [[nodiscard]] double factor(int id) const;
  [[nodiscard]] NodeHealth node_health(int id) const;
  [[nodiscard]] int ticks() const { return ticks_; }

 private:
  struct NodeState {
    Ewma egress;        ///< goodput ratio of the node's egress pipes
    Ewma loss;          ///< egress loss fraction (well-sampled windows only)
    Ewma sustained;     ///< delivered / expected ratio
    double last_egress_raw = 1.0;
    double last_sustained_raw = 1.0;  ///< last cohort-normalized window ratio
    /// Absolute effective-capacity estimate (fraction of nominal): goodput
    /// ratio x planned egress load / nominal — exact under proportional
    /// throttling whether or not the plan saturates the node.
    double last_estimate = 1.0;
    HysteresisDetector straggler;
    HysteresisDetector egress_health;
    /// Fresh healthy->degraded flips this tick: actions are transition-
    /// driven (one demote per trip), which is what stops a persistently
    /// degraded signal from ratcheting the node's class down every tick.
    bool egress_tripped = false;
    bool straggler_tripped = false;
    double factor = 1.0;
    /// Factor the node held when forgive() pardoned it (< 0: no pardon
    /// pending). The next tick lifts the demotion via a restore action.
    double pardon_from = -1.0;
    double last_action = -1e300;
    double last_restore = -1e300;
    double probe_interval = 0.0;  ///< 0 = use restore_cooldown
    double prev_delivered = 0.0;
    /// Consecutive windows in which every adjacent edge was frozen and no
    /// delivery moved — the stale-telemetry guard's counter. While > 0 the
    /// node is not judged; past kStaleTtl its estimates expire.
    int stale_windows = 0;
  };
  struct EdgeState {
    Ewma goodput;
    Ewma loss;  ///< loss fraction (well-sampled windows only)
    double last_raw = 1.0;  ///< last raw per-window goodput ratio
    HysteresisDetector health;
    bool tripped = false;
    double last_action = -1e300;
    double prev_busy = 0.0;
    double prev_completed = 0.0;
    std::uint64_t prev_sent = 0;
    std::uint64_t prev_lost = 0;
    std::uint64_t prev_attempts = 0;
    int stale_windows = 0;  ///< consecutive frozen windows on this pipe
  };

  /// Controller state per node id or per (from, to), created on first
  /// sight and kept for the controller's life: a pipe spliced out and back
  /// in resumes its estimator. States sit in creation order, so their
  /// indices are stable; `index` maps keys to them in ascending key order.
  template <typename Key, typename State>
  struct StateTable {
    std::vector<State> states;
    std::vector<std::pair<Key, std::size_t>> index;

    /// The state of `key`; nullptr when it was never seen.
    [[nodiscard]] const State* find(const Key& key) const {
      const auto it = std::lower_bound(
          index.begin(), index.end(), key,
          [](const std::pair<Key, std::size_t>& entry, const Key& k) {
            return entry.first < k;
          });
      return it != index.end() && it->first == key ? &states[it->second]
                                                   : nullptr;
    }
    State* find(const Key& key) {
      return const_cast<State*>(std::as_const(*this).find(key));
    }
    /// Points `out[i]` at the state of `keys[i]` (strictly ascending),
    /// creating the missing ones as copies of `fresh`: one merge.
    void resolve(const std::vector<Key>& keys, const State& fresh,
                 std::vector<State*>& out);
  };

  [[nodiscard]] double quantize(double value) const;

  ControllerConfig config_;
  StateTable<int, NodeState> nodes_;
  StateTable<std::pair<int, int>, EdgeState> edges_;
  int ticks_ = 0;
};

}  // namespace bmp::control
