#include "bmp/control/controller.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace bmp::control {

namespace {

/// Straggler detector: on the EWMA of each node's per-window delivered
/// rate over the stream's emission rate, *normalized by the cohort
/// median* — chunk dynamics deliver a few percent under the fluid plan
/// for everyone, so an absolute reference would leave half the
/// population hovering at the threshold. A straggler is a node doing
/// materially worse than its cohort.
constexpr DetectorConfig kStraggler{0.8, 0.92, 3};
constexpr DetectorConfig kEgress{0.85, 0.95, 2};  ///< on per-node goodput ratio
constexpr DetectorConfig kEdge{0.8, 0.95, 3};     ///< on per-edge goodput ratio
/// Ceiling of the failed-probe backoff, in multiples of restore_cooldown.
constexpr double kRestoreBackoffMax = 8.0;
/// Capacity classes: demotions quantize the telemetry estimate to
/// multiples of 1/kCapacityClasses (never below kDemoteFloor).
constexpr int kCapacityClasses = 8;
constexpr double kDemoteFloor = 0.125;
/// Judging gates. The *service* ratio (observed wire rate vs planned) is
/// meaningful from a single transmission — each send's duration is
/// individually informative — so it is judged from kMinServiceSends in
/// windows with at least kMinEdgeUtilization busy fraction (a slow pipe
/// completing one send per window must still be judged: those are
/// exactly the browned ones). The *loss* ratio needs a real sample: its
/// EWMA only updates in windows with at least kMinEdgeSends
/// transmissions and carries over otherwise.
constexpr double kMinEdgeUtilization = 0.2;
constexpr std::uint64_t kMinServiceSends = 1;
constexpr std::uint64_t kMinEdgeSends = 8;
/// Nodes are only judged in windows expected to carry at least this many
/// chunks — below that the per-window ratio is granularity noise.
constexpr double kMinExpectedChunks = 4.0;
/// Stale-telemetry guard TTL. A window whose edge counters (sent AND
/// attempts) stand still is *frozen* — a telemetry blackout, not a
/// measurement of zero — so the controller skips judging and carries its
/// estimates instead of manufacturing a false brownout (a frozen window
/// would otherwise read as sustained ratio 0 and demote the node). After
/// kStaleTtl consecutive frozen windows the carried estimates expire:
/// the smoothed signals are discarded and re-seed from the first fresh
/// window, so pre-blackout history cannot mask a degradation that
/// happened in the dark.
constexpr int kStaleTtl = 6;

/// Rejects inputs that break the TickInputs contract (telemetry.hpp), in
/// O(n + m): the per-tick scratch is indexed by node id, where a negative
/// one would write out of bounds, and states are resolved by merges that
/// need strictly ascending keys.
void check_inputs(const TickInputs& inputs) {
  const std::vector<NodeSample>& nodes = inputs.nodes;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].id < 0) {
      throw std::invalid_argument("Controller::tick: negative node id");
    }
    if (i > 0 && nodes[i - 1].id >= nodes[i].id) {
      throw std::invalid_argument(
          "Controller::tick: nodes not strictly ascending by id");
    }
  }
  const std::vector<EdgeSample>& edges = inputs.edges;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (edges[i].from < 0 || edges[i].to < 0) {
      throw std::invalid_argument("Controller::tick: negative edge id");
    }
    if (i > 0 && std::make_pair(edges[i - 1].from, edges[i - 1].to) >=
                     std::make_pair(edges[i].from, edges[i].to)) {
      throw std::invalid_argument(
          "Controller::tick: edges not strictly ascending by (from, to)");
    }
  }
}

}  // namespace

template <typename Key, typename State>
void Controller::StateTable<Key, State>::resolve(const std::vector<Key>& keys,
                                                 const State& fresh,
                                                 std::vector<State*>& out) {
  std::vector<std::size_t> slots;
  slots.reserve(keys.size());
  const std::size_t known = index.size();
  std::size_t at = 0;
  for (const Key& key : keys) {
    while (at < known && index[at].first < key) ++at;
    if (at < known && index[at].first == key) {
      slots.push_back(index[at].second);
      continue;
    }
    slots.push_back(states.size());
    index.emplace_back(key, states.size());
    states.push_back(fresh);
  }
  // The new keys were appended in ascending order: one merge re-sorts.
  std::inplace_merge(index.begin(),
                     index.begin() + static_cast<std::ptrdiff_t>(known),
                     index.end());
  out.clear();
  out.reserve(slots.size());
  for (const std::size_t slot : slots) out.push_back(&states[slot]);
}

void check_config(const ControllerConfig& config) {
  if (!(config.sample_interval > 0.0) || !std::isfinite(config.sample_interval)) {
    throw std::invalid_argument("Controller: sample_interval must be > 0");
  }
  if (!(config.ewma_alpha > 0.0) || config.ewma_alpha > 1.0) {
    throw std::invalid_argument("Controller: ewma_alpha in (0, 1]");
  }
  if (config.action_cooldown < 0.0 || config.restore_cooldown < 0.0) {
    throw std::invalid_argument("Controller: cooldowns must be >= 0");
  }
  if (config.restore_grid < 1) {
    throw std::invalid_argument("Controller: restore_grid must be >= 1");
  }
}

Controller::Controller(ControllerConfig config) : config_(config) {
  check_config(config);
}

double Controller::quantize(double value) const {
  const double classes = static_cast<double>(kCapacityClasses);
  double q = std::floor(value * classes + 1e-9) / classes;
  return std::clamp(q, kDemoteFloor, 1.0);
}

void Controller::forgive(int id) {
  if (NodeState* found = nodes_.find(id)) {
    NodeState& node = *found;
    if (node.factor < 1.0 && node.pardon_from < 0.0) {
      node.pardon_from = node.factor;
    }
    node.egress_health = HysteresisDetector(kEgress);
    node.straggler = HysteresisDetector(kStraggler);
    node.egress = Ewma();
    node.loss = Ewma();
    node.sustained = Ewma();
    node.stale_windows = 0;
    node.probe_interval = 0.0;
    node.egress_tripped = false;
    node.straggler_tripped = false;
    // prev_delivered stays: the raw counter is still monotone, wiping it
    // would turn the whole stream history into one giant first delta.
  }
  for (const auto& [key, slot] : edges_.index) {
    if (key.first != id && key.second != id) continue;
    EdgeState& edge = edges_.states[slot];
    edge.health = HysteresisDetector(kEdge);
    edge.goodput = Ewma();
    edge.loss = Ewma();
    edge.stale_windows = 0;
    edge.tripped = false;
    edge.last_action = -1e300;
    // prev_* counters stay, same reason as above.
  }
}

double Controller::factor(int id) const {
  const NodeState* node = nodes_.find(id);
  return node == nullptr ? 1.0 : node->factor;
}

NodeHealth Controller::node_health(int id) const {
  NodeHealth health;
  const NodeState* found = nodes_.find(id);
  if (found == nullptr) return health;
  const NodeState& node = *found;
  health.known = true;
  health.factor = node.factor;
  health.egress_ewma = node.egress.value();
  health.sustained_ewma = node.sustained.value();
  health.egress_degraded = node.egress_health.degraded();
  health.straggler = node.straggler.degraded();
  health.egress_trips = node.egress_health.trips();
  health.straggler_trips = node.straggler.trips();
  health.straggler_recoveries = node.straggler.recoveries();
  health.stale_windows = node.stale_windows;
  return health;
}

Directive Controller::tick(const TickInputs& inputs) {
  check_inputs(inputs);
  ++ticks_;
  Directive out;
  const std::size_t n = inputs.nodes.size();

  // ---- resolve every input's state once ---------------------------------
  // All per-tick scratch below is indexed by input position; node_at[i] is
  // the state of inputs.nodes[i].
  std::vector<NodeState*> node_at;
  {
    std::vector<int> ids;
    ids.reserve(n);
    for (const NodeSample& sample : inputs.nodes) ids.push_back(sample.id);
    NodeState fresh;
    fresh.straggler = HysteresisDetector(kStraggler);
    fresh.egress_health = HysteresisDetector(kEgress);
    nodes_.resolve(ids, fresh, node_at);
  }
  std::vector<EdgeState*> edge_at;
  {
    std::vector<std::pair<int, int>> keys;
    keys.reserve(inputs.edges.size());
    for (const EdgeSample& sample : inputs.edges) {
      keys.emplace_back(sample.from, sample.to);
    }
    EdgeState fresh;
    fresh.health = HysteresisDetector(kEdge);
    edges_.resolve(keys, fresh, edge_at);
  }
  // Input position by node id (-1: no sample this tick). Ids index it
  // directly, which is why check_inputs rejects negative ones.
  std::vector<int> position_of(
      n == 0 ? 0 : static_cast<std::size_t>(inputs.nodes.back().id) + 1, -1);
  for (std::size_t i = 0; i < n; ++i) {
    position_of[static_cast<std::size_t>(inputs.nodes[i].id)] =
        static_cast<int>(i);
  }
  const auto position = [&position_of](int id) {
    return static_cast<std::size_t>(id) < position_of.size()
               ? position_of[static_cast<std::size_t>(id)]
               : -1;
  };

  // ---- ingest per-edge telemetry; aggregate goodput per sender ----------
  // Node-level egress health aggregates the raw deltas across *all* of a
  // sender's pipes before judging: a browned-out node whose upload is
  // spread over many thin pipes still accumulates enough transmissions per
  // window at the node level, where each pipe alone would be unjudgeable.
  struct SenderAcc {
    double completed = 0.0;
    double busy = 0.0;
    double busy_rate = 0.0;  ///< sum of busy_i x rate_i (expected data)
    double planned = 0.0;    ///< sum of active pipe rates (egress load)
    std::uint64_t sent = 0;
    std::uint64_t lost = 0;
  };
  std::vector<SenderAcc> by_sender(n);
  // Stale-telemetry detection is node-centric: the collector substitutes a
  // whole node's sample set at once (its node counters plus every adjacent
  // edge), so an edge only counts as stale when one of its *endpoints* is a
  // stale node. A merely glacial pipe — one transmission crawling across a
  // whole window leaves both sent and attempts at zero — still has a live
  // endpoint (deliveries or sibling pipes moving) and must keep weighing on
  // its sender's egress ratio, or a deep brownout would read as health.
  struct EdgeWork {
    const EdgeSample* sample = nullptr;
    EdgeState* edge = nullptr;
    int from = -1;  ///< input position of the sender (-1: not sampled)
    int to = -1;    ///< input position of the receiver
    double busy_delta = 0.0;
    double completed_delta = 0.0;
    std::uint64_t sent_delta = 0;
    std::uint64_t lost_delta = 0;
  };
  std::vector<EdgeWork> edge_work;
  edge_work.reserve(inputs.edges.size());
  std::vector<int> adjacent_edges(n, 0);
  std::vector<int> frozen_edges(n, 0);
  for (std::size_t e = 0; e < inputs.edges.size(); ++e) {
    const EdgeSample& sample = inputs.edges[e];
    EdgeState& edge = *edge_at[e];
    edge.tripped = false;
    double busy_delta = sample.busy_time - edge.prev_busy;
    double completed_delta = sample.completed - edge.prev_completed;
    std::uint64_t sent_delta = sample.sent - edge.prev_sent;
    std::uint64_t lost_delta = sample.lost - edge.prev_lost;
    std::uint64_t attempts_delta = sample.attempts - edge.prev_attempts;
    if (busy_delta < 0.0 || completed_delta < 0.0 ||
        sample.sent < edge.prev_sent || sample.lost < edge.prev_lost ||
        sample.attempts < edge.prev_attempts) {
      // The pipe was respliced by a re-plan; its counters restarted.
      busy_delta = sample.busy_time;
      completed_delta = sample.completed;
      sent_delta = sample.sent;
      lost_delta = sample.lost;
      attempts_delta = sample.attempts;
    }
    edge.prev_busy = sample.busy_time;
    edge.prev_completed = sample.completed;
    edge.prev_sent = sample.sent;
    edge.prev_lost = sample.lost;
    edge.prev_attempts = sample.attempts;
    EdgeWork work;
    work.sample = &sample;
    work.edge = &edge;
    work.from = position(sample.from);
    work.to = position(sample.to);
    // Freeze signature: a live pipe's counters move nearly every window
    // (even an idle pipe is offered work, bumping attempts); sent AND
    // attempts standing still together is this edge's staleness vote for
    // its endpoints. The vote alone proves nothing — see the census below.
    const bool frozen = sent_delta == 0 && attempts_delta == 0;
    for (const int pos : {work.from, work.to}) {
      if (pos < 0) continue;
      ++adjacent_edges[static_cast<std::size_t>(pos)];
      if (frozen) ++frozen_edges[static_cast<std::size_t>(pos)];
    }
    work.busy_delta = busy_delta;
    work.completed_delta = completed_delta;
    work.sent_delta = sent_delta;
    work.lost_delta = lost_delta;
    edge_work.push_back(work);
  }

  // ---- stale-node census ------------------------------------------------
  // A node is dark when nothing about it moved this window: no delivery
  // progress and every adjacent pipe frozen. "No data" is not "data says
  // zero" — dark windows update no estimator and trip no detector, so a
  // telemetry blackout cannot manufacture a brownout.
  std::vector<double> delivered_deltas(n, 0.0);
  std::vector<char> dark(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeSample& sample = inputs.nodes[i];
    NodeState& node = *node_at[i];
    double delivered_delta = sample.delivered - node.prev_delivered;
    if (delivered_delta < 0.0) delivered_delta = sample.delivered;
    node.prev_delivered = sample.delivered;
    delivered_deltas[i] = delivered_delta;
    if (adjacent_edges[i] > 0 && delivered_delta <= 0.0 &&
        frozen_edges[i] == adjacent_edges[i]) {
      dark[i] = 1;
    }
  }
  const auto is_dark = [&dark](int pos) {
    return pos >= 0 && dark[static_cast<std::size_t>(pos)] != 0;
  };

  for (const EdgeWork& work : edge_work) {
    const EdgeSample& sample = *work.sample;
    EdgeState& edge = *work.edge;
    if (is_dark(work.from) || is_dark(work.to)) {
      ++edge.stale_windows;
      ++out.stale_edges;
      if (edge.health.degraded()) ++out.degraded_edges;
      continue;
    }
    if (edge.stale_windows >= kStaleTtl) {
      // The carried estimates outlived their TTL in the dark; re-seed from
      // this first fresh window rather than trusting pre-blackout history.
      edge.goodput = Ewma();
      edge.loss = Ewma();
    }
    edge.stale_windows = 0;
    if (sample.rate > 0.0 && inputs.window > 0.0) {
      if (work.from >= 0) {
        SenderAcc& acc = by_sender[static_cast<std::size_t>(work.from)];
        acc.completed += work.completed_delta;
        acc.busy += work.busy_delta;
        acc.busy_rate += work.busy_delta * sample.rate;
        acc.planned += sample.rate;
        acc.sent += work.sent_delta;
        acc.lost += work.lost_delta;
      }
      // The per-edge detector (reroute trigger): service is judged from a
      // couple of sends (each transmission's duration is individually
      // informative); the loss EWMA only moves on well-sampled windows.
      if (work.sent_delta >= kMinEdgeSends) {
        edge.loss.observe(static_cast<double>(work.lost_delta) /
                              static_cast<double>(work.sent_delta),
                          config_.ewma_alpha);
      }
      if (work.sent_delta >= kMinServiceSends &&
          work.busy_delta >= kMinEdgeUtilization * inputs.window) {
        const double service =
            (work.completed_delta / work.busy_delta) / sample.rate;
        const double goodput = service * (1.0 - edge.loss.value(0.0));
        edge.last_raw = goodput;
        edge.goodput.observe(goodput, config_.ewma_alpha);
        if (edge.health.update(edge.goodput.value()) &&
            edge.health.degraded()) {
          edge.tripped = true;
          ++out.edge_trips;
        }
      }
    }
    if (edge.health.degraded()) ++out.degraded_edges;
  }

  // ---- ingest per-node telemetry ----------------------------------------
  std::vector<std::pair<NodeState*, double>> judged;  // raw window ratio
  for (std::size_t i = 0; i < n; ++i) {
    const NodeSample& sample = inputs.nodes[i];
    NodeState& node = *node_at[i];
    node.egress_tripped = false;
    node.straggler_tripped = false;
    const double delivered_delta = delivered_deltas[i];
    if (dark[i] != 0) {
      ++node.stale_windows;
      ++out.stale_nodes;
      continue;  // the stragglers census below still sees the node
    }
    if (node.stale_windows >= kStaleTtl) {
      // Carried estimates expired in the dark: re-seed from fresh data.
      node.egress = Ewma();
      node.loss = Ewma();
      node.sustained = Ewma();
    }
    node.stale_windows = 0;
    const SenderAcc& acc = by_sender[i];
    if (acc.busy_rate > 0.0) {
      if (acc.sent >= kMinEdgeSends) {
        node.loss.observe(static_cast<double>(acc.lost) /
                              static_cast<double>(acc.sent),
                          config_.ewma_alpha);
      }
      if (acc.sent >= kMinServiceSends &&
          acc.busy >= kMinEdgeUtilization * inputs.window) {
        const double service = acc.completed / acc.busy_rate;
        node.last_egress_raw = service * (1.0 - node.loss.value(0.0));
        node.egress.observe(node.last_egress_raw, config_.ewma_alpha);
        if (sample.nominal > 0.0) {
          // Under proportional throttling the observed ratio is
          // effective / planned_load, so ratio x planned_load / nominal
          // recovers the *absolute* capacity fraction — exact whether or
          // not the current plan saturates the node, which is what lets
          // one demotion land on the right class instead of iterating.
          node.last_estimate = std::min(
              1.0, node.last_egress_raw * acc.planned / sample.nominal);
        }
        if (node.egress_health.update(node.egress.value()) &&
            node.egress_health.degraded()) {
          node.egress_tripped = true;
        }
      }
    }
    // Judge the sustained ratio only in windows wide enough that chunk
    // granularity is not the signal; the detector update itself waits for
    // the cohort median (second pass below).
    if (sample.judgeable && inputs.window > 0.0 &&
        inputs.expected_delta >=
            kMinExpectedChunks * inputs.chunk_size) {
      judged.emplace_back(&node, delivered_delta / inputs.expected_delta);
    }
  }
  // Cohort-relative straggling: normalize each node's window ratio by the
  // median ratio, so the chunk engine's generic few-percent slack under
  // the fluid plan cancels out and only *relative* victims trip.
  if (!judged.empty()) {
    std::vector<double> ratios;
    ratios.reserve(judged.size());
    for (const auto& [node, ratio] : judged) ratios.push_back(ratio);
    std::nth_element(ratios.begin(), ratios.begin() + ratios.size() / 2,
                     ratios.end());
    const double median = std::max(ratios[ratios.size() / 2], 1e-9);
    for (const auto& [node, ratio] : judged) {
      // Catch-up bursts are capped: being twice ahead this window must
      // not bank credit against falling behind later.
      const double normalized = std::min(ratio / median, 2.0);
      node->last_sustained_raw = normalized;
      node->sustained.observe(normalized, config_.ewma_alpha);
      if (node->straggler.update(node->sustained.value()) &&
          node->straggler.degraded()) {
        node->straggler_tripped = true;
        ++out.straggler_trips;
      }
    }
  }
  for (const NodeState* node : node_at) {
    if (node->straggler.degraded()) ++out.stragglers;
  }

  // ---- decide: demotions and restores (ascending node id) ---------------
  const double step = 1.0 / static_cast<double>(kCapacityClasses);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeSample& sample = inputs.nodes[i];
    NodeState& node = *node_at[i];
    if (node.pardon_from >= 0.0) {
      // A forgive() pardon outranks everything else this window: lift the
      // demotion in one step (the probes' doubling climb is for *suspected*
      // recoveries; a heal is a certainty the platform told us about).
      Evidence ev;
      ev.detector = "heal";
      ev.action = "restore";
      ev.node = sample.id;
      ev.threshold = kEgress.exit;
      ev.estimate = node.last_estimate;
      ev.factor_before = node.pardon_from;
      ev.factor_after = 1.0;
      out.evidence.push_back(ev);
      node.factor = 1.0;
      node.pardon_from = -1.0;
      node.last_action = inputs.now;
      node.last_restore = inputs.now;
      ++out.restores;
      continue;
    }
    if (node.stale_windows > 0) {
      // No actions from frozen windows — neither demotions (no evidence of
      // degradation) nor restore probes (no telemetry to judge the probe).
      // The current override set is carried unchanged.
      if (node.factor < 1.0) out.factors.emplace(sample.id, node.factor);
      continue;
    }
    // Actions fire on detector *transitions* — one demote per trip — plus
    // an escalation path while degraded when the latest reading sits well
    // below the current class (a deepening brownout, or the first demote
    // under-shooting on an unsaturated sender).
    double desired = node.factor;
    bool egress_cause = false;  // which detector drove the demotion
    if (node.egress_health.degraded()) {
      const double target = quantize(node.last_estimate);
      if (node.egress_tripped || target <= node.factor - 1.5 * step) {
        if (target < desired) egress_cause = true;
        desired = std::min(desired, target);
      }
    }
    if (node.straggler_tripped) {
      // A straggler can only relay what it receives — but its upload is
      // the symptom, not the cause (the browned-out *senders* are caught
      // by the egress path). Step it down one class, gently: mass-demoting
      // victims would shrink the platform and cascade.
      const double target = quantize(node.factor - step);
      if (target < desired) egress_cause = false;
      desired = std::min(desired, target);
    }
    const double probe_interval = node.probe_interval > 0.0
                                      ? node.probe_interval
                                      : config_.restore_cooldown;
    if (desired < node.factor - 1e-12) {
      if (inputs.now - node.last_action >= config_.action_cooldown) {
        Evidence ev;
        ev.action = "demote";
        ev.node = sample.id;
        if (egress_cause) {
          ev.detector = "egress";
          ev.window_value = node.last_egress_raw;
          ev.ewma = node.egress.value();
          ev.threshold = kEgress.enter;
          ev.trips = node.egress_health.trips();
        } else {
          ev.detector = "straggler";
          ev.window_value = node.last_sustained_raw;
          ev.ewma = node.sustained.value();
          ev.threshold = kStraggler.enter;
          ev.trips = node.straggler.trips();
        }
        ev.estimate = node.last_estimate;
        ev.factor_before = node.factor;
        ev.factor_after = desired;
        out.evidence.push_back(ev);
        node.factor = desired;
        node.last_action = inputs.now;
        // A demotion on the heels of a restore is a failed probe: back the
        // probe off exponentially so a persistent degradation goes quiet
        // instead of re-splicing the overlay forever.
        if (inputs.now - node.last_restore <= 2.0 * probe_interval) {
          node.probe_interval =
              std::min(2.0 * probe_interval,
                       kRestoreBackoffMax * config_.restore_cooldown);
        } else {
          node.probe_interval = 0.0;  // fresh degradation: fresh probes
        }
        ++out.demotions;
      }
    } else if (node.factor < 1.0 && !node.egress_health.degraded() &&
               !node.straggler.degraded() &&
               ticks_ % config_.restore_grid == 0 &&
               inputs.now - node.last_action >= probe_interval) {
      // Restores are *probes*: a demoted node's pipes run inside its cap,
      // so telemetry cannot show headroom — step the class up (doubling,
      // never past nominal) and let the detectors demote again if the
      // degradation persists. The probe interval bounds the flap rate.
      const double up = quantize(std::min(1.0, node.factor * 2.0));
      if (up > node.factor + 1e-12) {
        Evidence ev;
        ev.detector = "restore";
        ev.action = "restore";
        ev.node = sample.id;
        ev.window_value = node.last_egress_raw;
        ev.ewma = node.egress.value();
        ev.threshold = kEgress.exit;
        ev.estimate = node.last_estimate;
        ev.factor_before = node.factor;
        ev.factor_after = up;
        ev.trips = node.egress_health.trips();
        out.evidence.push_back(ev);
        node.factor = up;
        node.last_action = inputs.now;
        node.last_restore = inputs.now;
        ++out.restores;
      }
    }
    if (node.factor < 1.0) out.factors.emplace(sample.id, node.factor);
  }

  // ---- decide: reroutes around degraded edges ---------------------------
  for (const EdgeWork& work : edge_work) {
    const EdgeSample& sample = *work.sample;
    EdgeState& edge = *work.edge;
    if (edge.stale_windows > 0) continue;  // no clamps from frozen windows
    if (!edge.health.degraded()) continue;
    // A demoted sender is already being routed around as a whole.
    const double sender_factor =
        work.from >= 0 ? node_at[static_cast<std::size_t>(work.from)]->factor
                       : factor(sample.from);
    if (sender_factor < 1.0) continue;
    if (inputs.now - edge.last_action < config_.action_cooldown) continue;
    const double limit =
        sample.rate * std::clamp(edge.goodput.value(), 0.02, 1.0);
    // Clamp on the trip; afterwards only when it still buys a meaningful
    // cut (a lossy edge ratchets toward zero, i.e. gets routed around).
    if (!edge.tripped && limit >= sample.rate * 0.9) continue;
    if (limit >= sample.rate * (1.0 - 1e-9)) continue;
    edge.last_action = inputs.now;
    out.edge_limits.emplace_back(sample.from, sample.to, limit);
    Evidence ev;
    ev.detector = "edge";
    ev.action = "clamp";
    ev.from = sample.from;
    ev.to = sample.to;
    ev.window_value = edge.last_raw;
    ev.ewma = edge.goodput.value();
    ev.threshold = kEdge.enter;
    ev.estimate = limit;
    ev.factor_before = sample.rate;
    ev.factor_after = limit;
    ev.trips = edge.health.trips();
    out.evidence.push_back(ev);
    ++out.reroutes;
  }

  // ---- escalate: drift past the fingerprint-distance bound --------------
  out.act = out.demotions + out.restores + out.reroutes > 0;
  if (out.act) {
    double granted_total = 0.0;
    double delta = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const NodeSample& sample = inputs.nodes[i];
      granted_total += sample.granted;
      delta += std::abs(sample.nominal * node_at[i]->factor - sample.granted);
    }
    out.drift = granted_total > 0.0 ? delta / granted_total : 0.0;
    out.force_replan = out.drift > kReplanDrift;
    if (out.force_replan) {
      Evidence ev;
      ev.detector = "drift";
      ev.action = "replan";
      ev.drift = out.drift;
      ev.threshold = kReplanDrift;
      out.evidence.push_back(ev);
    }
  }
  return out;
}

}  // namespace bmp::control
