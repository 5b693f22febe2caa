// Fault-injection tests: the deterministic injector (compile / inject /
// random_plan), per-layer tolerance units (dataplane crash teardown and
// source failover, corruption checksums, partition drop + heal, the
// controller's stale-telemetry guard and heal pardon), runtime
// integration (crash detection from telemetry silence with cross-channel
// reclaim, blackout windows without false demotion, planner-outage
// fallback with retry), the ISSUE 8 headline acceptance — a seeded
// 500-node chaos storm where every survivor keeps completing, validate()
// stays clean, the worst survivor holds >= 0.80x the post-heal optimum
// and replays are bit-identical across runs and planner thread counts
// while the un-hardened baseline shows a materially worse clean floor —
// and a ~200-seed randomized chaos fuzz over small instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bmp/control/controller.hpp"
#include "bmp/dataplane/execution.hpp"
#include "bmp/engine/planner.hpp"
#include "bmp/fault/fault.hpp"
#include "bmp/fault/injector.hpp"
#include "bmp/obs/trace.hpp"
#include "bmp/runtime/runtime.hpp"
#include "bmp/runtime/scenario.hpp"

namespace bmp {
namespace {

// --------------------------------------------------------------- injector

TEST(Injector, CompileSortsByTimeAndNumbersPartitionGroups) {
  fault::FaultPlan plan;
  plan.crashes.push_back({5.0, 3});
  plan.crashes.push_back({1.0, 7});
  fault::PartitionSpec partition;
  partition.time = 2.0;
  partition.heal_time = 4.0;
  partition.group_b = {2, 4};
  plan.partitions.push_back(partition);
  plan.planner_outages.push_back({3.0, 6.0});

  const std::vector<runtime::Event> events = fault::Injector::compile(plan);
  ASSERT_EQ(events.size(), 6u);  // 2 crashes + cut/heal + outage start/end
  for (std::size_t k = 1; k < events.size(); ++k) {
    EXPECT_LE(events[k - 1].time, events[k].time);
  }
  for (const runtime::Event& event : events) {
    EXPECT_EQ(event.type, runtime::EventType::kFault);
    ASSERT_EQ(event.faults.size(), 1u);
  }
  // The partition cut carries group 1 (numbered from 1) and its node list.
  const runtime::FaultAction& cut = events[1].faults[0];
  EXPECT_EQ(cut.kind, runtime::FaultAction::Kind::kPartitionStart);
  EXPECT_EQ(cut.group, 1);
  EXPECT_EQ(cut.nodes, (std::vector<int>{2, 4}));
  const runtime::FaultAction& heal = events[3].faults[0];
  EXPECT_EQ(heal.kind, runtime::FaultAction::Kind::kPartitionHeal);
}

TEST(Injector, InjectMergesStablyAndResequences) {
  runtime::Scenario scenario(10.0, 11);
  scenario.source(100.0)
      .population({8, 0.5, gen::Dist::kUnif100})
      .channel({0.0, -1.0, 1.0, 0.5});
  runtime::ScenarioScript script = scenario.build();
  const std::size_t base = script.events.size();

  fault::FaultPlan plan;
  plan.crashes.push_back({4.0, 2});
  plan.blackouts.push_back({2.0, 6.0, {3, 5}});
  fault::Injector::inject(script, plan);
  ASSERT_EQ(script.events.size(), base + 3);  // crash + blackout start/end
  for (std::size_t k = 0; k < script.events.size(); ++k) {
    EXPECT_EQ(script.events[k].sequence, static_cast<std::uint64_t>(k));
    if (k > 0) EXPECT_LE(script.events[k - 1].time, script.events[k].time);
  }

  // Injecting the identical plan into an identical base script reproduces
  // the stream exactly — chaos scripts replay like any other scenario.
  runtime::ScenarioScript again = scenario.build();
  fault::Injector::inject(again, plan);
  ASSERT_EQ(again.events.size(), script.events.size());
  for (std::size_t k = 0; k < script.events.size(); ++k) {
    EXPECT_EQ(again.events[k].time, script.events[k].time);
    EXPECT_EQ(again.events[k].type, script.events[k].type);
    EXPECT_EQ(again.events[k].faults.size(), script.events[k].faults.size());
  }
}

TEST(Injector, RandomPlanIsSeedDeterministicAndBounded) {
  fault::RandomPlanOptions options;
  options.num_nodes = 20;
  options.horizon = 10.0;
  const fault::FaultPlan a = fault::Injector::random_plan(9, options);
  const fault::FaultPlan b = fault::Injector::random_plan(9, options);
  EXPECT_EQ(a.crashes.size(), b.crashes.size());
  for (std::size_t k = 0; k < a.crashes.size(); ++k) {
    EXPECT_EQ(a.crashes[k].time, b.crashes[k].time);
    EXPECT_EQ(a.crashes[k].node, b.crashes[k].node);
  }
  EXPECT_EQ(fault::Injector::compile(a).size(),
            fault::Injector::compile(b).size());

  bool any_difference = false;
  for (std::uint64_t seed = 0; seed < 8 && !any_difference; ++seed) {
    const fault::FaultPlan other = fault::Injector::random_plan(seed, options);
    any_difference = other.crashes.size() != a.crashes.size() ||
                     other.blackouts.size() != a.blackouts.size() ||
                     other.corruptions.size() != a.corruptions.size();
  }
  EXPECT_TRUE(any_difference);

  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    const fault::FaultPlan plan = fault::Injector::random_plan(seed, options);
    for (const fault::CrashSpec& crash : plan.crashes) {
      EXPECT_GE(crash.node, 1);
      EXPECT_LE(crash.node, options.num_nodes);
      EXPECT_GE(crash.time, 0.2 * options.horizon);
      EXPECT_LE(crash.time, 0.9 * options.horizon);
    }
    for (const fault::CorruptionSpec& spec : plan.corruptions) {
      EXPECT_GT(spec.rate, 0.0);
      EXPECT_LE(spec.rate, fault::kMaxCorruptionRate);
    }
  }
}

// -------------------------------------------------------- dataplane units

dataplane::ExecutionConfig file_config(int chunks) {
  dataplane::ExecutionConfig config;
  config.chunk_size = 1.0;
  config.total_chunks = chunks;
  config.emission_rate = 0.0;  // everything available at t = 0
  config.warmup_chunks = 0;
  return config;
}

TEST(DataplaneFault, CrashTearsDownPipesAndSurvivorsComplete) {
  // Diamond: source feeds A and B, both feed C. Crash A mid-stream; C's
  // re-requests move to B and the stream still completes for survivors.
  dataplane::Execution exec(file_config(30));
  const int source = exec.add_node(2.0);
  const int a = exec.add_node(1.0);
  const int b = exec.add_node(1.0);
  const int c = exec.add_node(0.0);
  exec.set_edge(source, a, 1.0);
  exec.set_edge(source, b, 1.0);
  exec.set_edge(a, c, 0.5);
  exec.set_edge(b, c, 0.5);
  exec.run_until(5.0);  // mid-stream, transfers in flight
  exec.crash_node(a);
  EXPECT_FALSE(exec.node_alive(a));
  EXPECT_TRUE(exec.validate().empty());  // no orphaned reservations
  exec.run_until(200.0);
  EXPECT_EQ(exec.delivered(b), 30);
  EXPECT_EQ(exec.delivered(c), 30);
  EXPECT_TRUE(exec.validate().empty());
}

TEST(DataplaneFault, SourceCrashFailsOverToMostCompleteSurvivor) {
  dataplane::Execution exec(file_config(40));
  const int source = exec.add_node(2.0);
  const int a = exec.add_node(1.0);
  const int b = exec.add_node(1.0);
  exec.set_edge(source, a, 1.5);
  exec.set_edge(source, b, 0.5);
  exec.run_until(8.0);  // a is ahead of b
  const int a_had = exec.delivered(a);
  ASSERT_GT(a_had, exec.delivered(b));
  ASSERT_LT(exec.delivered(b), 40);

  exec.crash_node(source);
  const int promoted = exec.failover_source();
  EXPECT_EQ(promoted, a);  // most-complete survivor becomes the origin
  EXPECT_EQ(exec.origin(), a);
  // Chunks only the dead origin held are written off; survivors' completion
  // no longer waits on them.
  EXPECT_EQ(exec.written_off(), static_cast<std::uint64_t>(40 - a_had));
  exec.set_edge(a, b, 1.0);
  exec.run_until(400.0);
  EXPECT_EQ(exec.delivered(b), a_had);
  EXPECT_TRUE(exec.validate().empty());
}

TEST(DataplaneFault, HardenedChecksumsCatchWhatFrozenPropagates) {
  // Chain source -> a -> b with corruption on a's egress. Hardened: every
  // corrupted copy is dropped and re-requested; the final copies are
  // clean. Frozen: b silently accepts and would forward the damage.
  for (const bool hardened : {true, false}) {
    dataplane::ExecutionConfig config = file_config(50);
    config.verify_payloads = hardened;
    dataplane::Execution exec(config);
    const int source = exec.add_node(1.0);
    const int a = exec.add_node(1.0);
    const int b = exec.add_node(0.0);
    exec.set_edge(source, a, 1.0);
    exec.set_edge(a, b, 1.0);
    exec.set_corrupt_rate(a, 0.4);
    exec.run_until(2000.0);
    EXPECT_EQ(exec.delivered(b), 50);
    int damaged = 0;
    for (int chunk = 0; chunk < 50; ++chunk) {
      if (exec.chunk_corrupted(b, chunk)) ++damaged;
    }
    if (hardened) {
      EXPECT_GT(exec.corruptions(), 0u);       // checksums caught copies
      EXPECT_EQ(exec.corrupted_accepted(), 0u);
      EXPECT_EQ(damaged, 0);
    } else {
      EXPECT_EQ(exec.corruptions(), 0u);
      EXPECT_GT(exec.corrupted_accepted(), 0u);
      EXPECT_GT(damaged, 0);  // the damage reached (and sticks to) b
    }
    EXPECT_TRUE(exec.validate().empty());
  }
}

TEST(DataplaneFault, PartitionDropsTrafficUntilHealed) {
  dataplane::Execution exec(file_config(30));
  const int source = exec.add_node(1.0);
  const int a = exec.add_node(0.0);
  exec.set_edge(source, a, 1.0);
  exec.run_until(4.0);
  exec.set_partition_group(a, 1);  // source stays in group 0: cut
  const std::uint64_t losses = exec.losses();
  exec.run_until(5.0);  // the transfer in flight at the cut drains
  const int before = exec.delivered(a);
  exec.run_until(12.0);
  EXPECT_EQ(exec.delivered(a), before);   // nothing crosses the cut
  EXPECT_GT(exec.losses(), losses);       // but the wire kept trying
  exec.set_partition_group(a, 0);         // heal
  exec.run_until(400.0);
  EXPECT_EQ(exec.delivered(a), 30);
  EXPECT_TRUE(exec.validate().empty());
}

// ----------------------------------------------- controller stale guard

/// Minimal synthetic world for the guard: node 1 uploads to node 2.
struct GuardFeed {
  control::Controller controller;
  double now = 0.0;
  double busy = 0.0, completed = 0.0, delivered = 0.0;
  std::uint64_t sent = 0, lost = 0, attempts = 0;

  explicit GuardFeed(const control::ControllerConfig& config)
      : controller(config) {}

  /// One window. `frozen` replays the previous cumulative counters —
  /// exactly what the runtime's blackout substitution produces.
  control::Directive tick(double service_ratio, bool frozen) {
    now += controller.config().sample_interval;
    if (!frozen) {
      const int sends = 10;
      busy += sends / std::max(service_ratio, 1e-6);
      completed += sends;
      sent += sends;
      attempts += sends;
      delivered += controller.config().sample_interval;
    }
    control::TickInputs inputs;
    inputs.now = now;
    inputs.window = controller.config().sample_interval;
    inputs.chunk_size = 0.01;
    inputs.expected_delta = controller.config().sample_interval;
    for (const int id : {1, 2}) {
      control::NodeSample node;
      node.id = id;
      node.nominal = 1.0;
      node.granted = controller.factor(id);
      node.delivered = delivered;
      node.judgeable = true;
      inputs.nodes.push_back(node);
    }
    control::EdgeSample edge;
    edge.from = 1;
    edge.to = 2;
    edge.rate = 1.0;
    edge.busy_time = busy;
    edge.completed = completed;
    edge.sent = sent;
    edge.lost = lost;
    edge.attempts = attempts;
    inputs.edges.push_back(edge);
    return controller.tick(inputs);
  }
};

control::ControllerConfig guard_config() {
  control::ControllerConfig config;
  config.sample_interval = 0.5;
  config.ewma_alpha = 1.0;
  config.action_cooldown = 0.0;
  config.restore_cooldown = 100.0;  // no probes mid-test
  config.restore_grid = 1;
  return config;
}

TEST(StaleGuard, FrozenWindowsNeverDemoteAndTtlExpiresEstimates) {
  GuardFeed feed(guard_config());
  feed.tick(1.0, false);
  feed.tick(1.0, false);
  ASSERT_DOUBLE_EQ(feed.controller.node_health(1).egress_ewma, 1.0);

  // A long blackout: every frozen window is skipped — no judgement, no
  // demotion, however long the dark stretch lasts.
  for (int window = 0; window < 10; ++window) {
    const control::Directive directive = feed.tick(1.0, true);
    EXPECT_EQ(directive.demotions, 0);
    EXPECT_GT(directive.stale_nodes, 0);
    EXPECT_GT(directive.stale_edges, 0);
  }
  EXPECT_DOUBLE_EQ(feed.controller.factor(1), 1.0);
  EXPECT_EQ(feed.controller.node_health(1).stale_windows, 10);

  // Past the TTL the carried estimates expired: the first fresh window
  // re-seeds the EWMA from scratch instead of blending with history.
  feed.tick(0.5, false);
  EXPECT_NEAR(feed.controller.node_health(1).egress_ewma, 0.5, 1e-9);
}

TEST(StaleGuard, GlacialPipeStillCountsAgainstItsSender) {
  // A node whose delivery keeps moving is NOT dark, even when one of its
  // pipes shows zero sent/attempts for a window (one slow transmission
  // can span the whole window) — the brownout evidence must keep flowing.
  GuardFeed feed(guard_config());
  feed.tick(1.0, false);
  feed.tick(1.0, false);
  for (int window = 0; window < 4; ++window) {
    // Deliveries move (node 1 keeps receiving) but its egress pipe is
    // glacial: counters stand still.
    feed.now += feed.controller.config().sample_interval;
    feed.delivered += feed.controller.config().sample_interval;
    control::TickInputs inputs;
    inputs.now = feed.now;
    inputs.window = feed.controller.config().sample_interval;
    inputs.chunk_size = 0.01;
    inputs.expected_delta = feed.controller.config().sample_interval;
    for (const int id : {1, 2}) {
      control::NodeSample node;
      node.id = id;
      node.nominal = 1.0;
      node.granted = feed.controller.factor(id);
      node.delivered = feed.delivered;
      node.judgeable = true;
      inputs.nodes.push_back(node);
    }
    control::EdgeSample edge;
    edge.from = 1;
    edge.to = 2;
    edge.rate = 1.0;
    edge.busy_time = feed.busy;
    edge.completed = feed.completed;
    edge.sent = feed.sent;
    edge.lost = feed.lost;
    edge.attempts = feed.attempts;
    inputs.edges.push_back(edge);
    const control::Directive directive = feed.controller.tick(inputs);
    EXPECT_EQ(directive.stale_nodes, 0);  // not dark: deliveries moved
  }
}

TEST(StaleGuard, ForgivePardonsDemotionInOneTick) {
  GuardFeed feed(guard_config());
  feed.tick(1.0, false);
  feed.tick(0.4, false);
  feed.tick(0.4, false);  // second bad window: trip + demote
  ASSERT_LT(feed.controller.factor(1), 1.0);

  feed.controller.forgive(1);
  const control::Directive directive = feed.tick(1.0, false);
  EXPECT_EQ(directive.restores, 1);
  EXPECT_TRUE(directive.act);
  EXPECT_DOUBLE_EQ(feed.controller.factor(1), 1.0);
  ASSERT_FALSE(directive.evidence.empty());
  const control::Evidence& ev = directive.evidence.front();
  EXPECT_STREQ(ev.action, "restore");
  EXPECT_STREQ(ev.detector, "heal");
  EXPECT_LT(ev.factor_before, ev.factor_after);
}

// ------------------------------------------------------ runtime reactions

runtime::RuntimeConfig chaos_config(bool hardened, double chunk,
                                    std::size_t planner_threads = 0) {
  runtime::RuntimeConfig config;
  config.collect_timing = false;
  config.broker_headroom = 0.05;
  config.planner.threads = planner_threads;
  config.dataplane.execute = true;
  config.dataplane.execution.chunk_size = chunk;
  config.dataplane.execution.receiver_window = 16;
  config.control.enabled = hardened;
  if (!hardened) {
    config.dataplane.execution.verify_payloads = false;
    config.fault.detect_crashes = false;
  }
  return config;
}

/// Steps a scripted runtime to `horizon`, dropping clock markers so the
/// control loop ticks even between sparse events.
void run_script(runtime::Runtime& rt, const runtime::ScenarioScript& script,
                double horizon) {
  std::size_t next = 0;
  for (double t = 1.0; t <= horizon + 1e-9; t += 1.0) {
    while (next < script.events.size() && script.events[next].time <= t) {
      rt.step(script.events[next++]);
    }
    runtime::Event marker;
    marker.type = runtime::EventType::kNodeJoin;  // empty: clock only
    marker.time = t;
    rt.step(marker);
  }
}

TEST(RuntimeFault, CrashDetectionSynthesizesDepartureAcrossAllChannels) {
  // Two channels host the same population; node 9 crashes with no leave
  // event. One detection must reclaim it from *both* channels at once.
  runtime::Scenario scenario(12.0, 21);
  scenario.source(400.0)
      .population({24, 0.5, gen::Dist::kUnif100})
      .channel({0.0, -1.0, 1.0, 0.4})
      .channel({0.0, -1.0, 1.0, 0.4});
  runtime::ScenarioScript script = scenario.build();
  fault::FaultPlan plan;
  plan.crashes.push_back({3.0, 9});
  fault::Injector::inject(script, plan);

  runtime::Runtime rt(chaos_config(true, 0.25), script.source_bandwidth,
                      script.initial_peers);
  run_script(rt, script, 12.0);

  EXPECT_EQ(rt.metrics().counter("fault.crashes_detected"), 1u);
  EXPECT_EQ(rt.alive_peers(), 23);
  // The synthesized departure repaired every hosting channel in the same
  // detection pass: one churn entry per channel, same timestamp.
  std::vector<double> repair_times;
  for (const runtime::ChurnReport& report : rt.churn_log()) {
    if (report.type == runtime::EventType::kNodeLeave) {
      repair_times.push_back(report.time);
    }
  }
  ASSERT_EQ(repair_times.size(), 2u);
  EXPECT_DOUBLE_EQ(repair_times[0], repair_times[1]);
  // The grant books still balance with the dead node gone — validate()
  // audits the broker ledger against the live channels.
  EXPECT_GT(rt.broker().allocated(), 0.0);
  EXPECT_TRUE(rt.validate().empty());
}

TEST(RuntimeFault, BlackoutFreezesTelemetryWithoutFalseDemotion) {
  runtime::Scenario scenario(12.0, 22);
  scenario.source(400.0)
      .population({24, 0.5, gen::Dist::kUnif100})
      .channel({0.0, -1.0, 1.0, 0.5});
  runtime::ScenarioScript script = scenario.build();
  fault::FaultPlan plan;
  plan.blackouts.push_back({3.0, 9.0, {2, 5, 11}});
  fault::Injector::inject(script, plan);

  runtime::Runtime rt(chaos_config(true, 0.25), script.source_bandwidth,
                      script.initial_peers);
  run_script(rt, script, 12.0);

  // The dark windows were skipped, nobody was demoted for going silent,
  // and the blacked-out peers survived the detector too.
  EXPECT_GT(rt.metrics().counter("control.stale_nodes"), 0u);
  EXPECT_EQ(rt.metrics().counter("control.demotions"), 0u);
  EXPECT_EQ(rt.metrics().counter("fault.crashes_detected"), 0u);
  EXPECT_EQ(rt.alive_peers(), 24);
  EXPECT_TRUE(rt.validate().empty());
}

TEST(RuntimeFault, PlannerOutageFallsBackAndRecovers) {
  // A node leaves mid-outage: the session must keep a verified incremental
  // repair (never a dead overlay), mark the plan stale, and rebuild once
  // the planner returns.
  runtime::Scenario scenario(12.0, 23);
  scenario.source(400.0)
      .population({24, 0.5, gen::Dist::kUnif100})
      .channel({0.0, -1.0, 1.0, 0.5});
  runtime::ScenarioScript script = scenario.build();
  runtime::Event leave;
  leave.type = runtime::EventType::kNodeLeave;
  leave.time = 5.0;
  leave.leaves = {7};
  script.events.push_back(leave);
  std::stable_sort(script.events.begin(), script.events.end(),
                   [](const runtime::Event& a, const runtime::Event& b) {
                     return a.time < b.time;
                   });
  fault::FaultPlan plan;
  plan.planner_outages.push_back({4.0, 8.0});
  fault::Injector::inject(script, plan);

  runtime::RuntimeConfig config = chaos_config(true, 0.25);
  // A maximal repair bar: a post-departure repair never verifies at 100%
  // of the design rate, so the departure inside the outage window must ask
  // the (down) planner and hit the fallback path.
  config.session.replan_threshold = 1.0;
  runtime::Runtime rt(config, script.source_bandwidth, script.initial_peers);
  run_script(rt, script, 12.0);

  EXPECT_GT(rt.metrics().counter("fault.planner_faults"), 0u);
  EXPECT_GT(rt.metrics().counter("fault.stale_rebuilds"), 0u);
  EXPECT_EQ(rt.alive_peers(), 23);
  // The stream never stopped: the incremental repair carried the channel.
  const dataplane::Execution* exec = rt.execution(0);
  ASSERT_NE(exec, nullptr);
  int moving = 0;
  for (int dp = 1; dp < exec->num_nodes(); ++dp) {
    if (exec->node_alive(dp) && exec->delivered(dp) > 0) ++moving;
  }
  EXPECT_EQ(moving, 23);
  EXPECT_TRUE(rt.validate().empty());
}

TEST(RuntimeFault, ChannelOpenDuringOutageIsRetriedAfterHeal) {
  runtime::Scenario scenario(12.0, 24);
  scenario.source(400.0)
      .population({16, 0.5, gen::Dist::kUnif100})
      .channel({0.0, -1.0, 1.0, 0.4})
      .channel({5.0, -1.0, 1.0, 0.3});  // opens mid-outage
  runtime::ScenarioScript script = scenario.build();
  fault::FaultPlan plan;
  plan.planner_outages.push_back({4.0, 7.0});
  fault::Injector::inject(script, plan);

  runtime::Runtime rt(chaos_config(true, 0.25), script.source_bandwidth,
                      script.initial_peers);
  run_script(rt, script, 12.0);

  EXPECT_GT(rt.metrics().counter("fault.opens_deferred"), 0u);
  EXPECT_GT(rt.metrics().counter("fault.opens_recovered"), 0u);
  EXPECT_EQ(rt.open_channels(), 2u);  // the deferred open landed
  EXPECT_TRUE(rt.validate().empty());
}

TEST(RuntimeFault, EvictedLivePeerAbsorbsLaterLeaveAndDegrade) {
  // Seed 24's storm crashes nobody (it only partitions 44 peers), yet the
  // silence detector evicts one live peer. The eviction is counted apart
  // from real crashes, and a later scripted brownout or leave of every
  // peer, the evicted one included, is absorbed as for a crashed peer.
  runtime::Scenario scenario(9.0, 77);
  scenario.source(4000.0)
      .population({156, 0.7, gen::Dist::kUnif100})
      .population({44, 0.3, gen::Dist::kLogNormal1})
      .channel({0.0, -1.0, 1.0, 0.3})
      .channel({0.0, -1.0, 1.0, 0.25})
      .channel({0.0, -1.0, 1.0, 0.2});
  runtime::ScenarioScript script = scenario.build();
  fault::RandomPlanOptions options;
  options.num_nodes = 200;
  options.horizon = 9.0;
  options.max_crashes = 4;
  const fault::FaultPlan plan = fault::Injector::random_plan(24, options);
  ASSERT_TRUE(plan.crashes.empty());
  fault::Injector::inject(script, plan);

  const auto run = [&](std::size_t planner_threads) {
    runtime::Runtime rt(chaos_config(true, 4.0, planner_threads),
                        script.source_bandwidth, script.initial_peers);
    run_script(rt, script, 9.0);
    EXPECT_EQ(rt.metrics().counter("fault.crashes_detected"), 0u);
    EXPECT_EQ(rt.metrics().counter("fault.evictions"), 1u);
    EXPECT_EQ(rt.alive_peers(), 199);
    runtime::Event brownout;
    brownout.type = runtime::EventType::kDegrade;
    brownout.time = 9.5;
    runtime::Event leave;
    leave.type = runtime::EventType::kNodeLeave;
    leave.time = 10.0;
    for (int node = 1; node <= 200; ++node) {
      runtime::Degradation degrade;
      degrade.node = node;
      degrade.set_factor = true;
      degrade.capacity_factor = 0.5;
      brownout.degrades.push_back(degrade);
      leave.leaves.push_back(node);
    }
    EXPECT_NO_THROW(rt.step(brownout));
    EXPECT_NO_THROW(rt.step(leave));
    EXPECT_TRUE(rt.validate().empty());
    return rt.metrics().snapshot().to_string(false);
  };
  EXPECT_EQ(run(1), run(4));
}

// ------------------------------------------------------- chaos acceptance

runtime::ScenarioScript storm_script(int peers, double horizon,
                                     std::uint64_t seed) {
  runtime::Scenario scenario(horizon, seed);
  scenario.source(4000.0)
      .population({peers * 3 / 5, 0.7, gen::Dist::kUnif100})
      .population({peers * 2 / 5, 0.3, gen::Dist::kLogNormal1})
      .channel({0.0, -1.0, 1.0, 0.5});
  runtime::ScenarioScript script = scenario.build();

  fault::FaultPlan plan;
  plan.crashes.push_back({3.0, 17});
  plan.crashes.push_back({3.5, 101});
  plan.crashes.push_back({5.5, 333});
  fault::PartitionSpec partition;
  partition.time = 4.0;
  partition.heal_time = 7.5;
  for (int id = 200; id < 212; ++id) partition.group_b.push_back(id);
  plan.partitions.push_back(partition);
  plan.corruptions.push_back({3.0, -1.0, /*node=*/12, /*rate=*/0.45});
  plan.corruptions.push_back({3.0, -1.0, /*node=*/77, /*rate=*/0.45});
  plan.corruptions.push_back({4.0, -1.0, /*node=*/260, /*rate=*/0.45});
  plan.blackouts.push_back({5.0, 8.0, {40, 41, 42, 43}});
  fault::Injector::inject(script, plan);
  return script;
}

double post_heal_optimum(const runtime::ScenarioScript& script,
                         double fraction) {
  std::vector<char> crashed(script.initial_peers.size() + 1, 0);
  for (const runtime::Event& event : script.events) {
    if (event.type != runtime::EventType::kFault) continue;
    for (const runtime::FaultAction& fault : event.faults) {
      if (fault.kind == runtime::FaultAction::Kind::kCrash) {
        crashed[static_cast<std::size_t>(fault.node)] = 1;
      }
    }
  }
  std::vector<double> open_bw;
  std::vector<double> guarded_bw;
  for (std::size_t k = 0; k < script.initial_peers.size(); ++k) {
    if (crashed[k + 1]) continue;
    const runtime::NodeSpec& peer = script.initial_peers[k];
    (peer.guarded ? guarded_bw : open_bw).push_back(peer.bandwidth * fraction);
  }
  Instance survivors(script.source_bandwidth * fraction, std::move(open_bw),
                     std::move(guarded_bw));
  return engine::Planner::plan_uncached(survivors,
                                        engine::Algorithm::kAcyclic, 0)
      .throughput;
}

struct StormOutcome {
  double worst_clean_rate = 0.0;  ///< worst survivor, uncorrupted chunks only
  int stalled = 0;
  std::uint64_t corrupt_accepted = 0;
  std::uint64_t crashes_detected = 0;
  std::string snapshot;
  std::string trace_json;
  std::vector<std::string> violations;
};

StormOutcome run_storm(const runtime::ScenarioScript& script, bool hardened,
                       double chunk, std::size_t planner_threads,
                       bool with_trace = false) {
  obs::TraceSink trace;
  runtime::RuntimeConfig config =
      chaos_config(hardened, chunk, planner_threads);
  if (with_trace) config.trace = &trace;
  runtime::Runtime rt(config, script.source_bandwidth, script.initial_peers);

  std::size_t next = 0;
  const auto run_until = [&](double t) {
    while (next < script.events.size() && script.events[next].time <= t) {
      rt.step(script.events[next++]);
    }
    runtime::Event marker;
    marker.type = runtime::EventType::kNodeJoin;
    marker.time = t;
    rt.step(marker);
  };
  // Clean deliveries only: a silently accepted corrupted chunk is not a
  // delivery, whatever the raw counter says.
  const auto clean_snapshot = [&] {
    const dataplane::Execution* exec = rt.execution(0);
    const int emitted = exec->delivered(exec->origin());
    std::vector<int> clean(static_cast<std::size_t>(exec->num_nodes()), -1);
    for (int dp = 1; dp < exec->num_nodes(); ++dp) {
      if (!exec->node_alive(dp)) continue;
      int damaged = 0;
      for (int chunk_id = 0; chunk_id < emitted; ++chunk_id) {
        if (exec->chunk_corrupted(dp, chunk_id)) ++damaged;
      }
      clean[static_cast<std::size_t>(dp)] = exec->delivered(dp) - damaged;
    }
    return clean;
  };

  run_until(10.0);
  const std::vector<int> before = clean_snapshot();
  run_until(14.0);
  const std::vector<int> after = clean_snapshot();

  StormOutcome outcome;
  outcome.worst_clean_rate = 1e300;
  for (std::size_t k = 1; k < after.size(); ++k) {
    if (after[k] < 0 || before[k] < 0) continue;
    if (after[k] <= before[k]) ++outcome.stalled;
    outcome.worst_clean_rate = std::min(
        outcome.worst_clean_rate, (after[k] - before[k]) * chunk / 4.0);
  }
  outcome.corrupt_accepted = rt.execution(0)->corrupted_accepted();
  outcome.crashes_detected = rt.metrics().counter("fault.crashes_detected");
  outcome.violations = rt.validate();
  outcome.snapshot = rt.metrics().snapshot().to_string(false);
  outcome.trace_json = with_trace ? trace.to_json() : std::string();
  return outcome;
}

TEST(ChaosAcceptance, StormSurvivorsHoldTheFloorAndReplayBitIdentically) {
  const runtime::ScenarioScript script = storm_script(500, 16.0, 2027);
  const double optimum = post_heal_optimum(script, 0.5);
  ASSERT_GT(optimum, 0.0);
  const double chunk = optimum / 40.0;

  const StormOutcome hardened = run_storm(script, true, chunk, 0, true);

  // Every survivor kept completing chunks after the heal; no budget or
  // grant leaked anywhere in the stack; nothing corrupt was accepted; all
  // three crashes were detected from silence alone.
  EXPECT_TRUE(hardened.violations.empty());
  EXPECT_EQ(hardened.stalled, 0);
  EXPECT_EQ(hardened.corrupt_accepted, 0u);
  EXPECT_EQ(hardened.crashes_detected, 3u);
  // The headline floor: worst survivor >= 0.80x the post-heal optimum.
  EXPECT_GE(hardened.worst_clean_rate, 0.80 * optimum);

  // The un-hardened baseline shows what the machinery buys: corruption is
  // silently swallowed and the clean floor is materially worse.
  const StormOutcome frozen = run_storm(script, false, chunk, 0);
  EXPECT_GT(frozen.corrupt_accepted, 0u);
  EXPECT_LT(frozen.worst_clean_rate, 0.65 * optimum);
  EXPECT_LT(frozen.worst_clean_rate, hardened.worst_clean_rate);

  // Replay determinism: same storm, same bytes — across runs and across
  // planner thread counts.
  const StormOutcome again = run_storm(script, true, chunk, 0, true);
  EXPECT_EQ(again.snapshot, hardened.snapshot);
  EXPECT_EQ(again.trace_json, hardened.trace_json);
  const StormOutcome threaded = run_storm(script, true, chunk, 4);
  EXPECT_EQ(threaded.snapshot, hardened.snapshot);
}

// ------------------------------------------------------------- chaos fuzz

TEST(ChaosFuzz, TwoHundredRandomPlansHoldEveryInvariant) {
  constexpr int kSeeds = 200;
  fault::RandomPlanOptions options;
  options.num_nodes = 32;
  options.horizon = 8.0;

  runtime::Scenario scenario(8.0, 77);
  scenario.source(600.0)
      .population({32, 0.5, gen::Dist::kUnif100})
      .channel({0.0, -1.0, 1.0, 0.5});
  const runtime::ScenarioScript base = scenario.build();

  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    runtime::ScenarioScript script = base;
    fault::Injector::inject(script,
                            fault::Injector::random_plan(seed, options));

    runtime::Runtime rt(chaos_config(true, 0.5), script.source_bandwidth,
                        script.initial_peers);
    run_script(rt, script, 8.0);  // no deadlock: the loop always returns

    // Budget conservation and no orphaned grants/reservations, whatever
    // the storm did.
    const std::vector<std::string> violations = rt.validate();
    EXPECT_TRUE(violations.empty())
        << "seed " << seed << ": " << violations.front();
    // Survivors keep making progress (partitions may legitimately starve
    // their islands until a heal that may never come — skip those).
    const dataplane::Execution* exec = rt.execution(0);
    ASSERT_NE(exec, nullptr) << "seed " << seed;
    EXPECT_GT(exec->delivered(1) + exec->delivered(2), 0) << "seed " << seed;

    // Replay determinism on a sample of the seeds: identical storms give
    // identical metrics, byte for byte.
    if (seed % 16 == 0) {
      runtime::Runtime replay(chaos_config(true, 0.5),
                              script.source_bandwidth, script.initial_peers);
      run_script(replay, script, 8.0);
      EXPECT_EQ(replay.metrics().snapshot().to_string(false),
                rt.metrics().snapshot().to_string(false))
          << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace bmp
