// Control-plane tests: hysteresis detector units, controller policy
// (quantized demotion, capacity estimation, probe backoff, no-flap bounds,
// drift escalation, byte-for-byte determinism), Session::adapt (capacity
// overrides, edge clamps, slot re-sorting, replan fallback), adaptive
// scenario compilation (brownouts, WAN link degradations, restores) — and
// the ISSUE 5 closed-loop acceptance: on a 500-node scenario where 10% of
// the nodes suffer a 4x effective-capacity brownout mid-stream, the
// adaptive runtime recovers the worst node to >= 0.85x of the
// post-brownout optimum while the frozen (non-adaptive) baseline stays
// far below it; every adapted scheme is flow-verified and replays are
// bit-identical across runs and planner thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bmp/control/controller.hpp"
#include "bmp/control/detector.hpp"
#include "bmp/engine/planner.hpp"
#include "bmp/engine/session.hpp"
#include "bmp/obs/flight_recorder.hpp"
#include "bmp/obs/trace.hpp"
#include "bmp/runtime/runtime.hpp"
#include "bmp/runtime/scenario.hpp"
#include "bmp/util/rng.hpp"

namespace bmp {
namespace {

// ------------------------------------------------------------- detectors

TEST(HysteresisDetector, TripsOnConsecutiveWindowsOnly) {
  control::HysteresisDetector detector({0.8, 0.92, 3});
  EXPECT_FALSE(detector.update(0.5));
  EXPECT_FALSE(detector.update(0.5));
  EXPECT_FALSE(detector.degraded());
  EXPECT_FALSE(detector.update(0.85));  // resets the below-count
  EXPECT_FALSE(detector.update(0.5));
  EXPECT_FALSE(detector.update(0.5));
  EXPECT_TRUE(detector.update(0.5));  // third consecutive: trip
  EXPECT_TRUE(detector.degraded());
  EXPECT_EQ(detector.trips(), 1);
}

TEST(HysteresisDetector, OscillationAroundThresholdNeverFlips) {
  // The no-flap core: a signal alternating just below / just above the
  // enter threshold never accumulates the consecutive windows to trip.
  control::HysteresisDetector detector({0.85, 0.95, 2});
  for (int i = 0; i < 100; ++i) {
    detector.update(i % 2 == 0 ? 0.84 : 0.86);
  }
  EXPECT_FALSE(detector.degraded());
  EXPECT_EQ(detector.trips(), 0);
  // And between the thresholds nothing changes in either state.
  control::HysteresisDetector tripped({0.85, 0.95, 1});
  tripped.update(0.5);
  ASSERT_TRUE(tripped.degraded());
  for (int i = 0; i < 50; ++i) tripped.update(0.90);  // enter < 0.90 < exit
  EXPECT_TRUE(tripped.degraded());
  EXPECT_EQ(tripped.recoveries(), 0);
  EXPECT_TRUE(tripped.update(0.96));
  EXPECT_FALSE(tripped.degraded());
  EXPECT_EQ(tripped.recoveries(), 1);
}

TEST(HysteresisDetector, RejectsBadConfig) {
  EXPECT_THROW(control::HysteresisDetector({0.9, 0.8, 2}),
               std::invalid_argument);
  EXPECT_THROW(control::HysteresisDetector({0.5, 0.9, 0}),
               std::invalid_argument);
}

TEST(Ewma, SeedsOnFirstObservation) {
  control::Ewma ewma;
  EXPECT_FALSE(ewma.seeded());
  EXPECT_DOUBLE_EQ(ewma.value(0.7), 0.7);
  ewma.observe(0.5, 0.25);
  EXPECT_DOUBLE_EQ(ewma.value(), 0.5);  // seeded, not blended toward 1
  ewma.observe(1.0, 0.25);
  EXPECT_NEAR(ewma.value(), 0.625, 1e-12);
}

// ------------------------------------------------- controller (synthetic)

/// Synthetic single-sender world: node 1 uploads to node 2 over one edge,
/// both nodes deliver at the emission rate. `service(factor)` lets a test
/// model the proportional-throttle wire: observed service ratio is
/// effective / planned where planned tracks the controller's class.
class SyntheticFeed {
 public:
  explicit SyntheticFeed(control::ControllerConfig config)
      : config_(config), controller_(config) {}

  control::Directive tick(double service_ratio, double loss = 0.0) {
    now_ += config_.sample_interval;
    const double window = config_.sample_interval;
    const double rate = 1.0;  // planned pipe rate
    const int sends = 10;
    busy_ += sends * 1.0 / (rate * std::max(service_ratio, 1e-6));
    completed_ += sends * 1.0;
    sent_ += sends;
    lost_ += static_cast<std::uint64_t>(loss * sends);

    control::TickInputs inputs;
    inputs.now = now_;
    inputs.window = window;
    inputs.chunk_size = 0.01;
    inputs.expected_delta = window * 1.0;
    delivered_ += inputs.expected_delta;
    for (const int id : {1, 2}) {
      control::NodeSample node;
      node.id = id;
      node.nominal = 1.0;
      node.granted = controller_.factor(id);
      node.delivered = delivered_;
      node.judgeable = true;
      inputs.nodes.push_back(node);
    }
    control::EdgeSample edge;
    edge.from = 1;
    edge.to = 2;
    edge.rate = rate;
    edge.busy_time = busy_;
    edge.completed = completed_;
    edge.sent = sent_;
    edge.lost = lost_;
    inputs.edges.push_back(edge);
    return controller_.tick(inputs);
  }

  [[nodiscard]] const control::Controller& controller() const {
    return controller_;
  }
  [[nodiscard]] double now() const { return now_; }

 private:
  control::ControllerConfig config_;
  control::Controller controller_;
  double now_ = 0.0;
  double busy_ = 0.0;
  double completed_ = 0.0;
  double delivered_ = 0.0;
  std::uint64_t sent_ = 0;
  std::uint64_t lost_ = 0;
};

control::ControllerConfig fast_config() {
  control::ControllerConfig config;
  config.sample_interval = 0.5;
  config.ewma_alpha = 1.0;  // no smoothing: unit tests want exact signals
  config.action_cooldown = 0.75;
  config.restore_cooldown = 1.5;
  config.restore_grid = 1;
  return config;
}

TEST(Controller, DemotesToQuantizedEstimateOnTrip) {
  SyntheticFeed feed(fast_config());
  // Healthy windows first, then a 2x brownout: service ratio 0.5.
  feed.tick(1.0);
  feed.tick(1.0);
  control::Directive directive = feed.tick(0.5);
  EXPECT_EQ(directive.demotions, 0);  // one window below: not yet
  directive = feed.tick(0.5);  // second consecutive: trip + demote
  EXPECT_EQ(directive.demotions, 1);
  EXPECT_TRUE(directive.act);
  // planned load == nominal, so the estimate is the raw ratio, quantized.
  EXPECT_DOUBLE_EQ(feed.controller().factor(1), 0.5);
  EXPECT_DOUBLE_EQ(directive.factors.at(1), 0.5);
  EXPECT_EQ(feed.controller().factor(2), 1.0);
}

TEST(Controller, OscillatingSignalTriggersAtMostOneCyclePerCooldown) {
  // The satellite no-flap bar: a signal oscillating around the enter
  // threshold trips nothing at all (hysteresis + consecutive windows)...
  SyntheticFeed oscillating(fast_config());
  int actions = 0;
  for (int i = 0; i < 60; ++i) {
    const control::Directive d =
        oscillating.tick(i % 2 == 0 ? 0.84 : 0.86);
    actions += d.demotions + d.restores;
  }
  EXPECT_EQ(actions, 0);

  // ... and a *persistent* degradation, probed optimistically, costs at
  // most one demote/restore cycle per restore cooldown — fewer once the
  // exponential backoff kicks in.
  control::ControllerConfig config = fast_config();
  SyntheticFeed persistent(config);
  persistent.tick(1.0);
  int demotions = 0;
  int restores = 0;
  const int ticks = 80;  // 40 seconds
  for (int i = 0; i < ticks; ++i) {
    // The proportional-throttle wire: true capacity 0.5 of nominal, the
    // plan saturates the controller's current class.
    const double factor = persistent.controller().factor(1);
    const control::Directive d =
        persistent.tick(std::min(1.0, 0.5 / factor));
    demotions += d.demotions;
    restores += d.restores;
  }
  const double horizon = persistent.now();
  EXPECT_GE(restores, 1);  // it does probe
  EXPECT_LE(restores, static_cast<int>(horizon / config.restore_cooldown) + 1);
  EXPECT_LE(demotions, restores + 2);  // one demote per failed probe
  // Backoff: with doubling intervals the probe count over 40 s stays far
  // below the naive horizon / cooldown bound.
  EXPECT_LE(restores, 8);
  // The loop may end mid-probe; a few more degraded windows settle it back
  // on the true class.
  for (int i = 0; i < 6; ++i) {
    const double factor = persistent.controller().factor(1);
    persistent.tick(std::min(1.0, 0.5 / factor));
  }
  EXPECT_DOUBLE_EQ(persistent.controller().factor(1), 0.5);
}

TEST(Controller, RecoversAndRestoresAfterDegradationEnds) {
  SyntheticFeed feed(fast_config());
  feed.tick(1.0);
  feed.tick(0.4);
  feed.tick(0.4);  // trip + demote
  ASSERT_LT(feed.controller().factor(1), 1.0);
  // Degradation ends: the wire honors whatever the plan asks again.
  int restores = 0;
  for (int i = 0; i < 20; ++i) restores += feed.tick(1.0).restores;
  EXPECT_GE(restores, 1);
  EXPECT_DOUBLE_EQ(feed.controller().factor(1), 1.0);
}

TEST(Controller, DriftPastBoundEscalatesToReplan) {
  control::ControllerConfig config = fast_config();
  SyntheticFeed feed(config);
  feed.tick(1.0);
  feed.tick(0.25);
  const control::Directive d = feed.tick(0.25);
  ASSERT_EQ(d.demotions, 1);
  // Node 1 carries half the granted total and dropped to class 0.25: the
  // directive moves ~37.5% of granted capacity — far past the 5% bound.
  EXPECT_GT(d.drift, control::kReplanDrift);
  EXPECT_TRUE(d.force_replan);
}

TEST(Controller, IdenticalInputsProduceIdenticalDirectives) {
  const auto run = [] {
    SyntheticFeed feed(fast_config());
    std::string log;
    for (int i = 0; i < 40; ++i) {
      const double service = i > 10 && i < 30 ? 0.45 : 1.0;
      const control::Directive d = feed.tick(service, i % 7 == 0 ? 0.1 : 0.0);
      log += std::to_string(d.demotions) + "," + std::to_string(d.restores) +
             "," + std::to_string(d.reroutes) + "," +
             std::to_string(d.stragglers) + "," +
             std::to_string(d.factors.size()) + ";";
    }
    return log;
  };
  EXPECT_EQ(run(), run());
}

/// Appends `value` at full precision, so the digest moves whenever any
/// logged double moves in its last bit.
void put(std::string& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g ", value);
  out += buf;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Pins 320 seeded ticks of one controller over 40 nodes with sparse ids
/// and a three-parent overlay: senders browned out and recovering,
/// stragglers, lossy edges (reroutes), a telemetry blackout longer than
/// the stale TTL (frozen counters), re-splices (counters falling), pipes
/// that vanish and come back (their old estimator state is reused), a
/// late joiner, a node whose samples drop out while its pipes stay, and
/// forgive() pardons. The digest covers every Directive field and
/// evidence record plus each node's final health, so a change in what the
/// controller decides, or in what order, fails here. A deliberate
/// behaviour change updates kDigest and says why in its commit.
TEST(Controller, DirectiveSequenceIsPinned) {
  control::Controller controller;
  util::Xoshiro256 rng(77);
  constexpr int kNodes = 40;
  constexpr int kTicks = 320;
  const auto id_of = [](int i) { return 3 * i + 1; };
  struct Pipe {
    int from = 0;
    int to = 0;
    double rate = 0.0;
    bool present = true;
    double busy = 0.0;
    double completed = 0.0;
    std::uint64_t sent = 0;
    std::uint64_t lost = 0;
    std::uint64_t attempts = 0;
  };
  std::vector<Pipe> pipes;
  for (int i = 1; i < kNodes; ++i) {
    std::vector<int> parents{i - 1, i / 2};
    if (i % 5 == 0) parents.push_back((i + 3) % kNodes);
    std::sort(parents.begin(), parents.end());
    parents.erase(std::unique(parents.begin(), parents.end()), parents.end());
    for (const int p : parents) {
      if (p == i) continue;
      Pipe pipe;
      pipe.from = p;
      pipe.to = i;
      pipe.rate = 0.5 + 0.1 * (p % 3);
      pipes.push_back(pipe);
    }
  }
  std::vector<double> delivered(kNodes, 0.0);
  const double chunk = 0.1;
  const double window = 0.5;
  const double expected = window * 4.0;
  std::string out;
  int demotions = 0;
  int restores = 0;
  int reroutes = 0;
  int replans = 0;
  int stale_nodes = 0;
  int stale_edges = 0;
  for (int tick = 1; tick <= kTicks; ++tick) {
    const auto capacity = [tick](int i) {
      if (i >= 5 && i <= 9 && tick >= 40 && tick < 140) return 0.4;
      if (i == 12 && tick >= 60) return 0.3;
      if (i == 31 && tick >= 230 && tick < 290) return 0.6;
      return 1.0;
    };
    const auto dark = [tick](int i) {
      return i >= 25 && i <= 27 && tick >= 200 && tick < 212;
    };
    const auto joined = [tick](int i) { return i != 38 || tick >= 30; };
    const auto sampled = [tick, &joined](int i) {
      return joined(i) && (i != 33 || tick < 150 || tick >= 180);
    };
    if (tick == 120) controller.forgive(id_of(6));
    if (tick == 214) controller.forgive(id_of(26));
    if (tick == 250) controller.forgive(id_of(12));

    control::TickInputs inputs;
    inputs.now = tick * window;
    inputs.window = window;
    inputs.expected_delta = expected;
    inputs.chunk_size = chunk;
    for (int i = 0; i < kNodes; ++i) {
      if (!joined(i)) continue;
      const double pace = i >= 20 && i <= 22 && tick >= 80 && tick < 160
                              ? 0.7
                              : 1.0;
      if (!dark(i) && i != 0) {
        delivered[static_cast<std::size_t>(i)] +=
            expected * pace * (1.0 + 0.03 * (rng.uniform() - 0.5));
      }
      if (!sampled(i)) continue;
      control::NodeSample node;
      node.id = id_of(i);
      node.nominal = 1.0 + 0.1 * (i % 5);
      node.granted = node.nominal * controller.factor(node.id);
      node.delivered = delivered[static_cast<std::size_t>(i)];
      node.judgeable = i != 0;
      inputs.nodes.push_back(node);
    }
    for (Pipe& pipe : pipes) {
      if (!joined(pipe.to) || !joined(pipe.from)) continue;
      if (pipe.present && rng.uniform() < 0.02) {
        pipe.present = false;
      } else if (!pipe.present && rng.uniform() < 0.25) {
        pipe.present = true;
        if (rng.uniform() < 0.5) pipe = Pipe{pipe.from, pipe.to, pipe.rate};
      }
      if (tick % 50 == 0 && rng.uniform() < 0.1) {
        pipe = Pipe{pipe.from, pipe.to, pipe.rate};  // re-spliced
      }
      if (!pipe.present) continue;
      if (!dark(pipe.from) && !dark(pipe.to)) {
        const std::uint64_t sends = 8 + rng.below(5);
        double loss = 0.0;
        if (pipe.from == 30 && tick >= 100 && tick < 200) loss = 0.3;
        if (pipe.from == 17 && pipe.to == 18 && tick >= 170 && tick < 260) {
          loss = 0.25;
        }
        const double service =
            capacity(pipe.from) * (1.0 + 0.02 * (rng.uniform() - 0.5));
        pipe.busy += static_cast<double>(sends) * chunk / (pipe.rate * service);
        pipe.completed += static_cast<double>(sends) * chunk;
        pipe.sent += sends;
        pipe.lost += static_cast<std::uint64_t>(std::max(
            0L, std::lround(loss * static_cast<double>(sends) +
                            rng.uniform() - 0.5)));
        pipe.attempts += sends + rng.below(3);
      }
      control::EdgeSample edge;
      edge.from = id_of(pipe.from);
      edge.to = id_of(pipe.to);
      edge.rate = pipe.rate;
      edge.busy_time = pipe.busy;
      edge.completed = pipe.completed;
      edge.sent = pipe.sent;
      edge.lost = std::min(pipe.lost, pipe.sent);
      edge.attempts = pipe.attempts;
      inputs.edges.push_back(edge);
    }
    std::sort(inputs.edges.begin(), inputs.edges.end(),
              [](const control::EdgeSample& a, const control::EdgeSample& b) {
                return std::make_pair(a.from, a.to) <
                       std::make_pair(b.from, b.to);
              });

    const control::Directive d = controller.tick(inputs);
    demotions += d.demotions;
    restores += d.restores;
    reroutes += d.reroutes;
    replans += d.force_replan ? 1 : 0;
    stale_nodes += d.stale_nodes;
    stale_edges += d.stale_edges;
    out += std::to_string(tick) + (d.act ? " 1" : " 0") +
           (d.force_replan ? " 1 " : " 0 ") + std::to_string(d.demotions) +
           " " + std::to_string(d.restores) + " " +
           std::to_string(d.reroutes) + " " + std::to_string(d.stragglers) +
           " " + std::to_string(d.degraded_edges) + " " +
           std::to_string(d.straggler_trips) + " " +
           std::to_string(d.edge_trips) + " " +
           std::to_string(d.stale_nodes) + " " +
           std::to_string(d.stale_edges) + " ";
    put(out, d.drift);
    for (const auto& [id, factor] : d.factors) {
      out += "f" + std::to_string(id) + "=";
      put(out, factor);
    }
    for (const auto& [from, to, limit] : d.edge_limits) {
      out += "l" + std::to_string(from) + ">" + std::to_string(to) + "=";
      put(out, limit);
    }
    for (const control::Evidence& ev : d.evidence) {
      out += std::string("\n  ") + ev.detector + " " + ev.action + " " +
             std::to_string(ev.node) + " " + std::to_string(ev.from) + " " +
             std::to_string(ev.to) + " " + std::to_string(ev.trips) + " ";
      put(out, ev.window_value);
      put(out, ev.ewma);
      put(out, ev.threshold);
      put(out, ev.estimate);
      put(out, ev.factor_before);
      put(out, ev.factor_after);
      put(out, ev.drift);
    }
    out += "\n";
  }
  for (int i = 0; i < kNodes; ++i) {
    const control::NodeHealth h = controller.node_health(id_of(i));
    out += std::to_string(id_of(i)) + (h.known ? " 1 " : " 0 ");
    put(out, h.factor);
    put(out, h.egress_ewma);
    put(out, h.sustained_ewma);
    out += std::to_string(h.egress_degraded) + std::to_string(h.straggler) +
           " " + std::to_string(h.egress_trips) + " " +
           std::to_string(h.straggler_trips) + " " +
           std::to_string(h.straggler_recoveries) + " " +
           std::to_string(h.stale_windows) + "\n";
  }
  // The run exercises what it claims to.
  EXPECT_GT(demotions, 0);
  EXPECT_GT(restores, 0);
  EXPECT_GT(reroutes, 0);
  EXPECT_GT(replans, 0);
  EXPECT_GT(stale_nodes, 0);
  EXPECT_GT(stale_edges, 0);

  constexpr std::uint64_t kDigest = 0x919c54f0324895b7ULL;
  char actual[24];
  std::snprintf(actual, sizeof(actual), "0x%016" PRIx64, fnv1a(out));
  EXPECT_EQ(fnv1a(out), kDigest) << "digest " << actual << " over "
                                 << out.size() << " bytes";
}

/// Two healthy nodes over one pipe, in contract order.
control::TickInputs well_formed_inputs() {
  control::TickInputs inputs;
  inputs.now = 0.5;
  inputs.window = 0.5;
  inputs.expected_delta = 1.0;
  for (const int id : {1, 2}) {
    control::NodeSample node;
    node.id = id;
    node.nominal = 1.0;
    node.granted = 1.0;
    inputs.nodes.push_back(node);
  }
  control::EdgeSample edge;
  edge.from = 1;
  edge.to = 2;
  edge.rate = 1.0;
  inputs.edges.push_back(edge);
  return inputs;
}

TEST(Controller, RejectsANegativeId) {
  control::Controller controller;
  control::TickInputs inputs = well_formed_inputs();
  inputs.nodes.front().id = -1;
  EXPECT_THROW(controller.tick(inputs), std::invalid_argument);
  inputs = well_formed_inputs();
  inputs.edges.front().from = -3;
  EXPECT_THROW(controller.tick(inputs), std::invalid_argument);
  inputs = well_formed_inputs();
  inputs.edges.front().to = -1;
  EXPECT_THROW(controller.tick(inputs), std::invalid_argument);
  // A rejected tick changes nothing: the first good one is tick 1.
  EXPECT_EQ(controller.ticks(), 0);
  controller.tick(well_formed_inputs());
  EXPECT_EQ(controller.ticks(), 1);
}

TEST(Controller, RejectsNodesNotStrictlyAscending) {
  control::Controller controller;
  control::TickInputs inputs = well_formed_inputs();
  std::swap(inputs.nodes[0], inputs.nodes[1]);
  EXPECT_THROW(controller.tick(inputs), std::invalid_argument);
  inputs = well_formed_inputs();
  inputs.nodes[1].id = inputs.nodes[0].id;  // a duplicate id
  EXPECT_THROW(controller.tick(inputs), std::invalid_argument);
  EXPECT_EQ(controller.ticks(), 0);
  EXPECT_FALSE(controller.node_health(1).known);
}

TEST(Controller, RejectsEdgesNotStrictlyAscending) {
  control::Controller controller;
  control::TickInputs inputs = well_formed_inputs();
  control::EdgeSample back = inputs.edges.front();
  back.from = 2;
  back.to = 1;
  inputs.edges.insert(inputs.edges.begin(), back);  // (2, 1) before (1, 2)
  EXPECT_THROW(controller.tick(inputs), std::invalid_argument);
  inputs = well_formed_inputs();
  inputs.edges.push_back(inputs.edges.front());  // a duplicate pipe
  EXPECT_THROW(controller.tick(inputs), std::invalid_argument);
  EXPECT_EQ(controller.ticks(), 0);
  inputs.edges.pop_back();
  inputs.edges.back().to = 5;  // same sender, larger receiver: in order
  control::EdgeSample next = inputs.edges.back();
  next.to = 7;
  inputs.edges.push_back(next);
  EXPECT_NO_THROW(controller.tick(inputs));
}

TEST(Controller, RejectsBadConfig) {
  control::ControllerConfig config;
  config.sample_interval = 0.0;
  EXPECT_THROW(control::Controller{config}, std::invalid_argument);
  config = {};
  config.restore_grid = 0;
  EXPECT_THROW(control::Controller{config}, std::invalid_argument);
}

// --------------------------------------------------------- Session::adapt

TEST(SessionAdapt, DemotesCapsRepairsAndVerifies) {
  engine::Planner planner;
  Instance instance(100.0, {60.0, 50.0, 40.0, 30.0}, {20.0, 10.0});
  engine::Session session(planner, instance);
  const double design = session.design_rate();
  ASSERT_GT(design, 0.0);

  // Halve two mid-class uploaders' effective capacity.
  engine::AdaptationRequest request;
  request.capacities.resize(
      static_cast<std::size_t>(session.instance().size()));
  for (int slot = 0; slot < session.instance().size(); ++slot) {
    request.capacities[static_cast<std::size_t>(slot)] =
        session.instance().b(slot) * (slot == 1 || slot == 2 ? 0.5 : 1.0);
  }
  const engine::ChurnOutcome outcome = session.adapt(request);
  EXPECT_EQ(outcome.departed, 0);
  EXPECT_GT(outcome.achieved_rate, 0.0);
  EXPECT_LT(outcome.achieved_rate, design + 1e-9);
  // The overlay in service respects the new caps...
  const Instance& updated = session.instance();
  for (int slot = 0; slot < updated.size(); ++slot) {
    EXPECT_LE(session.scheme().out_rate(slot), updated.b(slot) + 1e-7);
  }
  // ... and its rate was re-verified through the flow engine.
  EXPECT_GT(outcome.verify_calls, 0);
  const double verified = flow::scheme_throughput(session.scheme());
  EXPECT_NEAR(verified, session.current_rate(), 1e-6 * verified);
}

TEST(SessionAdapt, ForceReplanPlansTheEffectiveInstance) {
  engine::Planner planner;
  Instance instance(100.0, {60.0, 50.0, 40.0}, {20.0});
  engine::Session session(planner, instance);
  engine::AdaptationRequest request;
  request.force_replan = true;
  request.capacities = session.capacities();
  for (double& cap : request.capacities) cap *= 0.5;
  const engine::ChurnOutcome outcome = session.adapt(request);
  EXPECT_TRUE(outcome.full_replan);
  // Uniformly halved caps halve the optimum exactly.
  EXPECT_NEAR(session.design_rate(),
              engine::Planner::plan_uncached(session.instance(),
                                             engine::Algorithm::kAcyclic, 0)
                  .throughput,
              1e-9);
  EXPECT_NEAR(outcome.achieved_rate, session.current_rate(), 0.0);
}

TEST(SessionAdapt, EdgeLimitClampsAndPatchesAround) {
  engine::Planner planner;
  Instance instance(50.0, {40.0, 30.0, 20.0, 10.0}, {});
  engine::Session session(planner, instance);
  // Find a real edge to clamp.
  int from = -1, to = -1;
  double rate = 0.0;
  for (int i = 0; i < session.scheme().num_nodes() && from < 0; ++i) {
    for (const auto& [j, r] : session.scheme().out_edges(i)) {
      if (r > 1.0) { from = i; to = j; rate = r; break; }
    }
  }
  ASSERT_GE(from, 0);
  engine::AdaptationRequest request;
  request.capacities = session.capacities();
  request.edge_limits.emplace_back(from, to, rate * 0.25);
  const engine::ChurnOutcome outcome = session.adapt(request);
  EXPECT_GT(outcome.achieved_rate, 0.0);
  EXPECT_TRUE(flow::scheme_throughput(session.scheme()) > 0.0);
}

TEST(SessionAdapt, RejectsMalformedRequests) {
  engine::Planner planner;
  Instance instance(10.0, {5.0, 4.0}, {});
  engine::Session session(planner, instance);
  engine::AdaptationRequest request;
  request.capacities = {1.0};  // wrong size
  EXPECT_THROW(session.adapt(request), std::invalid_argument);
  request.capacities = session.capacities();
  request.edge_limits.emplace_back(0, 9, 1.0);  // unknown slot
  EXPECT_THROW(session.adapt(request), std::invalid_argument);
}

// A planner whose outage a test holds down after the session's first plan,
// a small mixed platform, and the demotion of two mid-class uploaders.
struct OutageFixture {
  engine::PlannerOutage outage;
  engine::Planner planner{[this] {
    engine::PlannerConfig config;
    config.outage = &outage;
    return config;
  }()};
};

Instance six_peers() {
  return Instance(100.0, {60.0, 50.0, 40.0, 30.0}, {20.0, 10.0});
}

engine::AdaptationRequest halve_slots_1_and_2(const engine::Session& session) {
  engine::AdaptationRequest request;
  request.capacities = session.capacities();
  request.capacities[1] *= 0.5;
  request.capacities[2] *= 0.5;
  return request;
}

TEST(SessionAdapt, OutageServesTheBelowBarRepair) {
  OutageFixture fixture;
  engine::Session session(fixture.planner, six_peers());
  const double design = session.design_rate();
  fixture.outage.down = true;
  // A source cut to 10 caps every overlay at 10, far below the bar.
  engine::AdaptationRequest request;
  request.capacities = session.capacities();
  request.capacities[0] = 10.0;
  const engine::ChurnOutcome outcome = session.adapt(request);
  EXPECT_TRUE(outcome.planner_fault);
  EXPECT_FALSE(outcome.full_replan);
  EXPECT_LE(outcome.repaired_rate, 10.0 + 1e-9);
  EXPECT_GT(outcome.repaired_rate, 0.0);
  EXPECT_EQ(outcome.achieved_rate, outcome.repaired_rate);
  EXPECT_EQ(session.current_rate(), outcome.repaired_rate);
  EXPECT_EQ(session.design_rate(), design);
  EXPECT_EQ(session.full_replans(), 0);
  EXPECT_EQ(session.incremental_replans(), 1);
}

TEST(SessionAdapt, ForcedReplanDuringOutageServesAFreshRepair) {
  OutageFixture fixture;
  engine::Session session(fixture.planner, six_peers());
  fixture.outage.down = true;
  engine::AdaptationRequest request = halve_slots_1_and_2(session);
  request.force_replan = true;
  const engine::ChurnOutcome outcome = session.adapt(request);
  EXPECT_TRUE(outcome.planner_fault);
  EXPECT_FALSE(outcome.full_replan);
  EXPECT_GT(outcome.repaired_rate, 0.0);
  EXPECT_EQ(outcome.achieved_rate, outcome.repaired_rate);
  // The degraded overlay and the one repair computed after the refusal.
  EXPECT_EQ(outcome.verify_calls, 2);
  EXPECT_EQ(session.incremental_replans(), 1);
  EXPECT_TRUE(session.scheme().validate(session.instance()).empty());
  EXPECT_NEAR(flow::scheme_throughput(session.scheme()), session.current_rate(),
              1e-9 * session.current_rate());
}

TEST(SessionAdapt, FullBarLadderRunsOneRepair) {
  // At replan_threshold 1 every ladder rung is the target itself.
  engine::Planner planner;
  engine::SessionConfig config;
  config.replan_threshold = 1.0;
  engine::Session session(planner, six_peers(), config);
  const engine::ChurnOutcome outcome =
      session.adapt(halve_slots_1_and_2(session));
  ASSERT_TRUE(outcome.full_replan);
  // The degraded overlay, one repair and the computed re-plan.
  EXPECT_EQ(outcome.verify_calls, 3);
}

std::string describe(const engine::ChurnOutcome& o) {
  // verify_us is wall clock; every other field is deterministic.
  char line[320];
  std::snprintf(line, sizeof(line),
                "departed=%d survivors=%d design=%.17g degraded=%.17g "
                "repaired=%.17g achieved=%.17g full_replan=%d "
                "planner_fault=%d verify=%d/%d/%d\n",
                o.departed, o.survivors, o.design_rate, o.degraded_rate,
                o.repaired_rate, o.achieved_rate, o.full_replan ? 1 : 0,
                o.planner_fault ? 1 : 0, o.verify_calls, o.verify_sweep,
                o.verify_maxflow);
  return line;
}

TEST(SessionAdapt, OutcomeSequenceIsPinned) {
  engine::Planner planner;
  engine::Session session(
      planner, Instance(100.0, {60.0, 50.0, 40.0, 30.0, 25.0},
                        {20.0, 15.0, 10.0}));
  std::string log = describe(session.on_departure({2}));
  // Demote two uploaders, then restore them to their nominal caps (the
  // demotion may re-sort the slots: follow original_id).
  const std::vector<double> nominal = session.capacities();
  log += describe(session.adapt(halve_slots_1_and_2(session)));
  engine::AdaptationRequest restore;
  for (int slot = 0; slot < session.instance().size(); ++slot) {
    restore.capacities.push_back(nominal[static_cast<std::size_t>(
        session.instance().original_id(slot))]);
  }
  log += describe(session.adapt(restore));
  engine::AdaptationRequest forced;
  forced.capacities = session.capacities();
  forced.force_replan = true;
  log += describe(session.adapt(forced));
  EXPECT_EQ(log,
            "departed=1 survivors=7 design=42.500000000043748 "
            "degraded=10.000000000262489 repaired=40.37500000004156 "
            "achieved=40.37500000004156 full_replan=0 planner_fault=0 "
            "verify=3/3/0\n"
            "departed=0 survivors=7 design=42.500000000043748 "
            "degraded=20.18750000002078 repaired=30.357142857174107 "
            "achieved=30.357142857174107 full_replan=0 planner_fault=0 "
            "verify=2/2/0\n"
            "departed=0 survivors=7 design=42.500000000043748 "
            "degraded=30.357142857174107 repaired=36.428571428565178 "
            "achieved=36.428571428565178 full_replan=0 planner_fault=0 "
            "verify=2/2/0\n"
            "departed=0 survivors=7 design=42.500000000043748 "
            "degraded=36.428571428565178 repaired=0 "
            "achieved=41.428571428614283 full_replan=1 planner_fault=0 "
            "verify=2/2/0\n");
}

// ------------------------------------------------------ adaptive scenario

TEST(AdaptiveScenario, CompilesBrownoutAndRestoreEvents) {
  runtime::Scenario scenario(10.0, 5);
  scenario.source(500.0)
      .population({20, 0.5, gen::Dist::kUnif100})
      .population({10, 0.5, gen::Dist::kUnif100})
      .channel({0.0, -1.0, 1.0, 0.5});
  runtime::BrownoutSpec brownout;
  brownout.time = 2.0;
  brownout.duration = 3.0;
  brownout.fraction = 1.0;
  brownout.capacity_factor = 0.25;
  brownout.population_class = 1;  // ids 21..30
  scenario.brownout(brownout);
  const runtime::ScenarioScript script = scenario.build();

  std::vector<const runtime::Event*> degrades;
  for (const runtime::Event& event : script.events) {
    if (event.type == runtime::EventType::kDegrade) degrades.push_back(&event);
  }
  ASSERT_EQ(degrades.size(), 2u);  // start + restore
  EXPECT_DOUBLE_EQ(degrades[0]->time, 2.0);
  EXPECT_DOUBLE_EQ(degrades[1]->time, 5.0);
  EXPECT_EQ(degrades[0]->degrades.size(), 10u);  // the whole class
  for (const runtime::Degradation& d : degrades[0]->degrades) {
    EXPECT_GE(d.node, 21);
    EXPECT_LE(d.node, 30);
    EXPECT_TRUE(d.set_factor);
    EXPECT_DOUBLE_EQ(d.capacity_factor, 0.25);
  }
  for (const runtime::Degradation& d : degrades[1]->degrades) {
    EXPECT_TRUE(d.set_factor);
    EXPECT_DOUBLE_EQ(d.capacity_factor, 1.0);  // restore
  }
}

TEST(AdaptiveScenario, LinkDegradeRestoresClassProfile) {
  runtime::Scenario scenario(10.0, 5);
  runtime::NodeClassSpec wan{10, 0.5, gen::Dist::kUnif100};
  wan.wan = true;
  wan.profile = {0.01, 0.02, 0.0};
  scenario.source(500.0).population(wan);
  runtime::LinkDegradeSpec degrade;
  degrade.time = 1.0;
  degrade.duration = 2.0;
  degrade.fraction = 1.0;
  degrade.profile = {0.3, 0.1, 0.2};
  scenario.degrade_links(degrade);
  const runtime::ScenarioScript script = scenario.build();
  // Members carry the class profile from birth.
  for (const runtime::NodeSpec& peer : script.initial_peers) {
    EXPECT_TRUE(peer.wan);
    EXPECT_EQ(peer.profile, wan.profile);
  }
  std::vector<const runtime::Event*> degrades;
  for (const runtime::Event& event : script.events) {
    if (event.type == runtime::EventType::kDegrade) degrades.push_back(&event);
  }
  ASSERT_EQ(degrades.size(), 2u);
  EXPECT_TRUE(degrades[0]->degrades[0].set_profile);
  EXPECT_EQ(degrades[0]->degrades[0].profile, degrade.profile);
  // The restore goes back to the *class* profile, not to zero.
  EXPECT_TRUE(degrades[1]->degrades[0].set_profile);
  EXPECT_EQ(degrades[1]->degrades[0].profile, wan.profile);
}

// -------------------------------------------- closed-loop runtime behavior

runtime::ScenarioScript adaptive_script(int peers, double horizon,
                                        std::uint64_t seed) {
  runtime::Scenario scenario(horizon, seed);
  scenario.source(4000.0)
      .population({peers * 3 / 5, 0.7, gen::Dist::kUnif100})
      .population({peers * 2 / 5, 0.3, gen::Dist::kLogNormal1})
      .channel({0.0, -1.0, 1.0, /*fraction=*/0.5});
  runtime::BrownoutSpec brownout;
  brownout.time = 3.0;
  brownout.duration = -1.0;  // persists to the horizon
  brownout.fraction = 0.10;
  brownout.capacity_factor = 0.25;
  scenario.brownout(brownout);
  return scenario.build();
}

/// Optimum of the platform as the brownout left it (channel share applied).
double post_brownout_optimum(const runtime::ScenarioScript& script,
                             double fraction) {
  std::vector<char> browned(script.initial_peers.size() + 1, 0);
  for (const runtime::Event& event : script.events) {
    if (event.type != runtime::EventType::kDegrade) continue;
    for (const runtime::Degradation& d : event.degrades) {
      browned[static_cast<std::size_t>(d.node)] = 1;
    }
    break;
  }
  std::vector<double> open_bw;
  std::vector<double> guarded_bw;
  for (std::size_t k = 0; k < script.initial_peers.size(); ++k) {
    const runtime::NodeSpec& peer = script.initial_peers[k];
    const double eff =
        peer.bandwidth * fraction * (browned[k + 1] ? 0.25 : 1.0);
    (peer.guarded ? guarded_bw : open_bw).push_back(eff);
  }
  Instance effective(script.source_bandwidth * fraction, std::move(open_bw),
                     std::move(guarded_bw));
  return engine::Planner::plan_uncached(effective,
                                        engine::Algorithm::kAcyclic, 0)
      .throughput;
}

runtime::RuntimeConfig adaptive_config(bool adaptive, double chunk,
                                       std::size_t planner_threads) {
  runtime::RuntimeConfig config;
  config.collect_timing = false;
  config.broker_headroom = 0.05;
  config.planner.threads = planner_threads;
  config.dataplane.execute = true;
  config.dataplane.execution.chunk_size = chunk;
  config.dataplane.execution.receiver_window = 16;
  config.control.enabled = adaptive;
  return config;
}

struct ClosedLoopOutcome {
  double worst_rate = 0.0;  ///< min per-node delivered rate, late window
  std::string snapshot;
  std::vector<runtime::ControlReport> log;
  std::uint64_t adaptations = 0;
  std::uint64_t verify_calls = 0;
};

ClosedLoopOutcome run_closed_loop(const runtime::ScenarioScript& script,
                                  bool adaptive, double chunk,
                                  std::size_t planner_threads, double probe_at,
                                  double horizon,
                                  obs::TraceSink* trace = nullptr,
                                  obs::FlightRecorder* recorder = nullptr) {
  runtime::RuntimeConfig config =
      adaptive_config(adaptive, chunk, planner_threads);
  config.trace = trace;
  config.recorder = recorder;
  runtime::Runtime rt(config, script.source_bandwidth, script.initial_peers);
  std::size_t next = 0;
  const auto run_until = [&](double t) {
    while (next < script.events.size() && script.events[next].time <= t) {
      rt.step(script.events[next++]);
    }
    runtime::Event marker;
    marker.type = runtime::EventType::kNodeJoin;  // empty: clock only
    marker.time = t;
    rt.step(marker);
  };
  const auto snapshot = [&] {
    const dataplane::Execution* exec = rt.execution(0);
    std::vector<int> delivered;
    for (int dp = 1; dp < exec->num_nodes(); ++dp) {
      delivered.push_back(exec->delivered(dp));
    }
    return delivered;
  };
  run_until(probe_at);
  const std::vector<int> before = snapshot();
  run_until(horizon);
  const std::vector<int> after = snapshot();

  ClosedLoopOutcome outcome;
  outcome.worst_rate = 1e300;
  for (std::size_t k = 0; k < before.size(); ++k) {
    outcome.worst_rate = std::min(
        outcome.worst_rate, (after[k] - before[k]) * chunk /
                                (horizon - probe_at));
  }
  EXPECT_TRUE(rt.validate().empty());
  EXPECT_EQ(rt.metrics().counter("dataplane.rate_audit_failures"), 0u);
  outcome.snapshot = rt.metrics().snapshot().to_string(false);
  outcome.log = rt.control_log();
  outcome.adaptations = rt.metrics().counter("control.repairs") +
                        rt.metrics().counter("control.replans");
  outcome.verify_calls = rt.metrics().counter("verify.calls");
  return outcome;
}

TEST(ControlAcceptance, BrownoutRecoveryBeats85PercentOfPostBrownoutOptimum) {
  const runtime::ScenarioScript script = adaptive_script(500, 24.0, 2026);
  const double optimum = post_brownout_optimum(script, 0.5);
  ASSERT_GT(optimum, 0.0);
  const double chunk = optimum / 40.0;

  const ClosedLoopOutcome adaptive =
      run_closed_loop(script, true, chunk, 0, 16.0, 24.0);
  const ClosedLoopOutcome frozen =
      run_closed_loop(script, false, chunk, 0, 16.0, 24.0);

  // The adaptive loop recovers the worst node past the bar; the frozen
  // plan leaves it starving at a fraction of the effective optimum.
  EXPECT_GE(adaptive.worst_rate, 0.85 * optimum);
  EXPECT_LT(frozen.worst_rate, 0.5 * optimum);
  EXPECT_LT(frozen.worst_rate, adaptive.worst_rate);

  // The loop actually closed: detections led to verified adaptations.
  EXPECT_GT(adaptive.adaptations, 0u);
  EXPECT_FALSE(adaptive.log.empty());
  // Every adapted scheme went through flow verification (repair verifier
  // or planner-side verify_plans): the runtime counted at least one
  // verification per adaptation.
  EXPECT_GE(adaptive.verify_calls, adaptive.adaptations);
  // The frozen runtime took no control actions at all.
  EXPECT_EQ(frozen.adaptations, 0u);
  EXPECT_TRUE(frozen.log.empty());

  // Causal audit: every acting directive explains itself — one evidence
  // record per demotion/restore/reroute (plus one for a replan
  // escalation), each naming its detector and a crossed threshold.
  for (const runtime::ControlReport& report : adaptive.log) {
    const std::size_t expected =
        static_cast<std::size_t>(report.demotions + report.restores +
                                 report.reroutes) +
        (report.replan ? 1u : 0u);
    ASSERT_FALSE(report.evidence.empty());
    EXPECT_EQ(report.evidence.size(), expected);
    for (const control::Evidence& ev : report.evidence) {
      EXPECT_STRNE(ev.detector, "");
      EXPECT_STRNE(ev.action, "");
      EXPECT_GT(ev.threshold, 0.0);
      if (std::string(ev.action) == "demote") {
        EXPECT_GE(ev.node, 0);
        EXPECT_LT(ev.factor_after, ev.factor_before);
        EXPECT_GT(ev.estimate, 0.0);
      } else if (std::string(ev.action) == "restore") {
        EXPECT_GE(ev.node, 0);
        EXPECT_GT(ev.factor_after, ev.factor_before);
      } else if (std::string(ev.action) == "clamp") {
        EXPECT_GE(ev.from, 0);
        EXPECT_GE(ev.to, 0);
        EXPECT_LE(ev.estimate, ev.factor_before);
      } else {
        EXPECT_STREQ(ev.action, "replan");
        EXPECT_GT(ev.drift, ev.threshold);
      }
    }
  }
}

TEST(ControlAcceptance, TraceAndRecorderReplayByteIdentically) {
  // ISSUE 6: two runs of the 500-node acceptance scenario must produce
  // byte-identical traces and identical flight-recorder contents — the
  // cross-layer observability sits entirely on the deterministic side.
  const runtime::ScenarioScript script = adaptive_script(500, 24.0, 2026);
  const double optimum = post_brownout_optimum(script, 0.5);
  const double chunk = optimum / 40.0;

  obs::TraceSink trace_a;
  obs::FlightRecorder recorder_a;
  obs::TraceSink trace_b;
  obs::FlightRecorder recorder_b;
  const ClosedLoopOutcome a =
      run_closed_loop(script, true, chunk, 0, 16.0, 24.0, &trace_a,
                      &recorder_a);
  const ClosedLoopOutcome b =
      run_closed_loop(script, true, chunk, 0, 16.0, 24.0, &trace_b,
                      &recorder_b);
  EXPECT_EQ(a.snapshot, b.snapshot);

  // The trace saw every layer act and replays to the byte.
  EXPECT_GT(trace_a.spans(), 0u);
  EXPECT_EQ(trace_a.dropped(), 0u);
  const std::string json_a = trace_a.to_json();
  EXPECT_EQ(json_a, trace_b.to_json());
  EXPECT_NE(json_a.find("\"verify\""), std::string::npos);
  EXPECT_NE(json_a.find("\"adapt\""), std::string::npos);
  EXPECT_NE(json_a.find("\"directive\""), std::string::npos);
  EXPECT_NE(json_a.find("\"demote\""), std::string::npos);

  // Same for the flight recorder: same decisions, same rings, same bytes.
  EXPECT_GT(recorder_a.recorded(), 0u);
  EXPECT_EQ(recorder_a.to_json(), recorder_b.to_json());
  EXPECT_FALSE(recorder_a.channel_events(0).empty());
}

TEST(ControlAcceptance, ReplaysBitIdenticallyAcrossRunsAndThreadCounts) {
  // Smaller platform, same shape: the determinism contract must hold for
  // the full adaptive pipeline (telemetry -> detectors -> directives ->
  // adapt -> live patch), independent of planner threading.
  const runtime::ScenarioScript script = adaptive_script(150, 14.0, 11);
  const double optimum = post_brownout_optimum(script, 0.5);
  const double chunk = optimum / 40.0;

  const ClosedLoopOutcome base =
      run_closed_loop(script, true, chunk, 1, 10.0, 14.0);
  const ClosedLoopOutcome again =
      run_closed_loop(script, true, chunk, 1, 10.0, 14.0);
  const ClosedLoopOutcome threaded =
      run_closed_loop(script, true, chunk, 4, 10.0, 14.0);

  EXPECT_EQ(base.snapshot, again.snapshot);
  EXPECT_EQ(base.snapshot, threaded.snapshot);
  EXPECT_NE(base.snapshot.find("counter control.samples"), std::string::npos);

  ASSERT_EQ(base.log.size(), threaded.log.size());
  for (std::size_t i = 0; i < base.log.size(); ++i) {
    const runtime::ControlReport& a = base.log[i];
    const runtime::ControlReport& b = threaded.log[i];
    EXPECT_DOUBLE_EQ(a.time, b.time);
    EXPECT_EQ(a.channel, b.channel);
    EXPECT_EQ(a.demotions, b.demotions);
    EXPECT_EQ(a.restores, b.restores);
    EXPECT_EQ(a.reroutes, b.reroutes);
    EXPECT_EQ(a.full_replan, b.full_replan);
    EXPECT_DOUBLE_EQ(a.rate_after, b.rate_after);
    EXPECT_DOUBLE_EQ(a.drift, b.drift);
  }
  EXPECT_DOUBLE_EQ(base.worst_rate, threaded.worst_rate);
}

TEST(ControlRuntime, RequiresExecutionMode) {
  runtime::RuntimeConfig config;
  config.control.enabled = true;  // but dataplane.execute left off
  EXPECT_THROW(runtime::Runtime(config, 100.0, {{50.0, false}}),
               std::invalid_argument);
}

TEST(ControlRuntime, TimesEveryControlBoundaryOnce) {
  const auto run = [](bool collect_timing, bool control) {
    runtime::RuntimeConfig config;
    config.collect_timing = collect_timing;
    config.dataplane.execute = true;
    config.dataplane.execution.chunk_size = 2.0;
    config.control.enabled = control;
    std::vector<runtime::NodeSpec> peers(6);
    for (std::size_t i = 0; i < peers.size(); ++i) {
      peers[i].bandwidth = 40.0 + static_cast<double>(i);
    }
    runtime::Runtime rt(config, 200.0, peers);
    runtime::Event open;
    open.type = runtime::EventType::kChannelOpen;
    open.channel = 0;
    open.fraction = 0.5;
    rt.step(open);
    runtime::Event marker;
    marker.type = runtime::EventType::kNodeJoin;  // empty: clock only
    marker.time = 2.2;
    rt.step(marker);
    (void)rt.drain(3.0);
    const obs::Sketch* sketch = rt.metrics().sketch("timing.control_tick_us");
    return sketch == nullptr ? -1 : static_cast<int>(sketch->count());
  };
  // Boundaries every 0.5 s up to the drain at 3.0: six of them.
  EXPECT_EQ(run(true, true), 6);
  EXPECT_EQ(run(false, true), -1);
  EXPECT_EQ(run(true, false), -1);
}

TEST(ControlRuntime, DegradeEventsValidateAndApply) {
  runtime::RuntimeConfig config;
  config.collect_timing = false;
  config.dataplane.execute = true;
  config.dataplane.execution.chunk_size = 2.0;
  std::vector<runtime::NodeSpec> peers(6);
  for (std::size_t i = 0; i < peers.size(); ++i) {
    peers[i].bandwidth = 40.0 + static_cast<double>(i);
  }
  runtime::Runtime rt(config, 200.0, peers);
  runtime::Event open;
  open.type = runtime::EventType::kChannelOpen;
  open.channel = 0;
  open.fraction = 0.5;
  rt.step(open);

  runtime::Event degrade;
  degrade.type = runtime::EventType::kDegrade;
  degrade.time = 1.0;
  runtime::Degradation d;
  d.node = 2;
  d.set_factor = true;
  d.capacity_factor = 0.5;
  degrade.degrades.push_back(d);
  rt.step(degrade);
  EXPECT_EQ(rt.metrics().counter("degrade.nodes"), 1u);
  EXPECT_EQ(rt.metrics().counter("events.degrade"), 1u);

  runtime::Event bad;
  bad.type = runtime::EventType::kDegrade;
  bad.time = 2.0;
  runtime::Degradation invalid;
  invalid.node = 0;  // the source cannot degrade
  invalid.set_factor = true;
  invalid.capacity_factor = 0.5;
  bad.degrades.push_back(invalid);
  EXPECT_THROW(rt.step(bad), std::invalid_argument);
}

}  // namespace
}  // namespace bmp
