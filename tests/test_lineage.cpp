// Lineage + SLO tests (ISSUE 9): the critical-path analyzer's blame-sum
// invariant on hand-built delivery DAGs, LineageSink JSON round-trips and
// bounded-capacity drop accounting, the SloMonitor multi-window burn-rate
// state machine (ok -> warn -> page -> ok on synthetic SLI feeds) — and
// the acceptance bar: two closed-loop runs of the 500-node adaptive
// brownout scenario with lineage and the SLO monitor enabled produce
// byte-identical lineage dumps, blame tables and SLO alert sequences
// across planner thread counts 1 vs 4, with the blame table's attributed
// segments summing to the last node's completion time within 1e-6.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "bmp/engine/planner.hpp"
#include "bmp/obs/lineage.hpp"
#include "bmp/obs/slo.hpp"
#include "bmp/runtime/runtime.hpp"
#include "bmp/runtime/scenario.hpp"

namespace bmp {
namespace {

// ------------------------------------------------------- analyzer units

obs::HopRecord make_hop(int chunk, int from, int to, double start,
                        double finish, int retransmits = 0,
                        double loss_time = 0.0, bool hol = false) {
  obs::HopRecord hop;
  hop.chunk = chunk;
  hop.from = from;
  hop.to = to;
  hop.channel = 0;
  hop.start = start;
  hop.finish = finish;
  hop.retransmits = retransmits;
  hop.loss_time = loss_time;
  hop.hol_stalled = hol;
  return hop;
}

TEST(CriticalPath, BlameSegmentsSumToCompletionExactly) {
  obs::LineageSink sink;
  // Chunk 0 emitted at t=0.5, delivered 0 -> 1 -> 2; node 2 finishes last.
  sink.record_emit(0, 0, /*chunk=*/0, 0.5);
  // 0 -> 1: two failed attempts burned 0.3s, success at [1.0, 2.0].
  sink.record(make_hop(0, 0, 1, 1.0, 2.0, /*retransmits=*/2, 0.3));
  // 1 -> 2: receiver-window stall before the [3.0, 5.0] transmission.
  sink.record(make_hop(0, 1, 2, 3.0, 5.0, 0, 0.0, /*hol=*/true));
  // Decoy chunk on the same channel, finishing well before chunk 0.
  sink.record_emit(0, 0, /*chunk=*/1, 0.0);
  sink.record(make_hop(1, 0, 1, 0.2, 0.8));

  const obs::BlameTable table = obs::analyze_critical_path(sink.hops());
  ASSERT_TRUE(table.valid);
  EXPECT_EQ(table.channel, 0);
  EXPECT_EQ(table.last_node, 2);
  EXPECT_EQ(table.critical_chunk, 0);
  EXPECT_DOUBLE_EQ(table.completion_time, 5.0);
  EXPECT_DOUBLE_EQ(table.emit_delay, 0.5);
  ASSERT_EQ(table.path.size(), 2u);

  // Hop 0 -> 1: enqueue resolved to the emit time; the pre-transmission
  // gap [0.5, 1.0] splits into 0.3 retransmit loss + 0.2 queue wait.
  const obs::PathSegment& first = table.path[0];
  EXPECT_DOUBLE_EQ(first.enqueue, 0.5);
  EXPECT_DOUBLE_EQ(first.queue_wait, 0.2);
  EXPECT_DOUBLE_EQ(first.retransmit_loss, 0.3);
  EXPECT_DOUBLE_EQ(first.transmit, 1.0);
  EXPECT_DOUBLE_EQ(first.sched_stall, 0.0);

  // Hop 1 -> 2: enqueue == parent finish; the HOL flag routes the whole
  // [2.0, 3.0] gap to sched_stall instead of queue_wait.
  const obs::PathSegment& second = table.path[1];
  EXPECT_DOUBLE_EQ(second.enqueue, 2.0);
  EXPECT_DOUBLE_EQ(second.queue_wait, 0.0);
  EXPECT_DOUBLE_EQ(second.sched_stall, 1.0);
  EXPECT_DOUBLE_EQ(second.transmit, 2.0);

  // The telescoping invariant, exactly: emit delay plus every segment's
  // four components equals the last node's completion time.
  EXPECT_DOUBLE_EQ(table.attributed_total, table.completion_time);

  // Blame rows sort by attributed delay: the stalled 1->2 edge leads.
  ASSERT_EQ(table.edges.size(), 2u);
  EXPECT_EQ(table.edges[0].key, "1->2");
  EXPECT_DOUBLE_EQ(table.edges[0].delay, 3.0);
  EXPECT_EQ(table.edges[1].key, "0->1");
  EXPECT_DOUBLE_EQ(table.edges[1].delay, 1.5);
  ASSERT_EQ(table.nodes.size(), 2u);
  EXPECT_EQ(table.nodes[0].key, "1");
}

TEST(CriticalPath, EmptySinkYieldsInvalidTable) {
  const obs::BlameTable table = obs::analyze_critical_path({});
  EXPECT_FALSE(table.valid);
}

// ------------------------------------------------------------ sink units

TEST(LineageSink, JsonRoundTripPreservesHopsAndBlame) {
  obs::LineageSink sink;
  sink.record_emit(3, 0, 0, 0.25);
  sink.record(make_hop(0, 0, 1, 0.5, 1.5, 1, 0.2));
  sink.record(make_hop(0, 1, 2, 2.0, 2.75, 0, 0.0, true));

  std::vector<obs::HopRecord> parsed;
  std::uint64_t dropped = 99;
  ASSERT_TRUE(obs::parse_lineage_json(sink.to_json(), parsed, dropped));
  EXPECT_EQ(dropped, 0u);
  const std::vector<obs::HopRecord>& original = sink.hops();
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t k = 0; k < parsed.size(); ++k) {
    EXPECT_EQ(parsed[k].chunk, original[k].chunk);
    EXPECT_EQ(parsed[k].from, original[k].from);
    EXPECT_EQ(parsed[k].to, original[k].to);
    EXPECT_EQ(parsed[k].channel, original[k].channel);
    EXPECT_DOUBLE_EQ(parsed[k].enqueue, original[k].enqueue);
    EXPECT_DOUBLE_EQ(parsed[k].start, original[k].start);
    EXPECT_DOUBLE_EQ(parsed[k].finish, original[k].finish);
    EXPECT_EQ(parsed[k].retransmits, original[k].retransmits);
    EXPECT_DOUBLE_EQ(parsed[k].loss_time, original[k].loss_time);
    EXPECT_EQ(parsed[k].hol_stalled, original[k].hol_stalled);
    EXPECT_EQ(parsed[k].overtake, original[k].overtake);
  }
  // The analyzer reaches the same blame table from the parsed dump — what
  // tools/lineage_report relies on.
  EXPECT_EQ(obs::analyze_critical_path(parsed).to_json(),
            obs::analyze_critical_path(original).to_json());
}

TEST(LineageSink, DropsPastCapButKeepsAvailabilityRoots) {
  obs::LineageConfig config;
  config.max_hops = 1;
  obs::LineageSink sink(config);
  sink.record_emit(0, 0, 0, 0.0);
  sink.record(make_hop(0, 0, 1, 0.0, 1.0));  // kept
  sink.record(make_hop(0, 1, 2, 1.5, 2.0));  // dropped (cap)
  sink.record(make_hop(0, 2, 3, 2.5, 3.0));  // dropped (cap)
  EXPECT_EQ(sink.recorded(), 3u);
  EXPECT_EQ(sink.dropped(), 2u);
  EXPECT_EQ(sink.hops().size(), 1u);
  // A dropped delivery still roots its receiver's availability, so later
  // readers see when node 2 first held chunk 0 — not the fallback.
  EXPECT_DOUBLE_EQ(sink.available_at(0, 2, 0, -1.0), 2.0);
  EXPECT_DOUBLE_EQ(sink.available_at(0, 1, 0, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(sink.available_at(0, 9, 0, -1.0), -1.0);

  // clear() re-arms everything, including the drop counter.
  sink.clear();
  EXPECT_EQ(sink.recorded(), 0u);
  EXPECT_EQ(sink.dropped(), 0u);
  EXPECT_TRUE(sink.hops().empty());
}

// ------------------------------------------------------------- SLO units

TEST(SloMonitor, BurnRateWalksOkWarnPageAndBack) {
  // Defaults: short window 4, long window 12, warn 0.5, page 0.75,
  // sustained floor 0.7. Four good ticks, four bad, three good:
  //   tick 5: short burn 0.50          -> warn
  //   tick 7: short 1.00, long 0.50    -> page
  //   tick 8: short 0.75, long < 0.50  -> back to warn
  //   tick 10: short 0.25              -> ok
  obs::SloMonitor monitor(0, obs::SloConfig{});
  const auto feed = [&](obs::SloMonitor& m) {
    int tick = 0;
    for (int k = 0; k < 4; ++k) m.evaluate(tick++, 0.9);
    for (int k = 0; k < 4; ++k) m.evaluate(tick++, 0.2);
    for (int k = 0; k < 3; ++k) m.evaluate(tick++, 0.9);
  };
  feed(monitor);

  EXPECT_EQ(monitor.state(), obs::SloState::kOk);
  EXPECT_EQ(monitor.pages(), 1u);
  EXPECT_EQ(monitor.warns(), 2u);
  EXPECT_EQ(monitor.ticks(), 11u);
  EXPECT_EQ(monitor.dropped_alerts(), 0u);
  ASSERT_EQ(monitor.alerts().size(), 4u);
  const std::vector<obs::SloAlert>& alerts = monitor.alerts();
  EXPECT_EQ(alerts[0].to, obs::SloState::kWarn);
  EXPECT_EQ(alerts[0].time, 5.0);
  EXPECT_EQ(alerts[0].sli, "sustained");
  EXPECT_EQ(alerts[1].to, obs::SloState::kPage);
  EXPECT_EQ(alerts[1].time, 7.0);
  EXPECT_EQ(alerts[2].to, obs::SloState::kWarn);
  EXPECT_EQ(alerts[2].sli, "clear");
  EXPECT_EQ(alerts[3].to, obs::SloState::kOk);
  EXPECT_EQ(alerts[3].time, 10.0);

  // The alert stream is deterministic: an identically fed monitor renders
  // a byte-identical alerts_json().
  obs::SloMonitor replay(0, obs::SloConfig{});
  feed(replay);
  EXPECT_EQ(monitor.alerts_json(), replay.alerts_json());
}

TEST(SloMonitor, LatencySliLabelsTheAlert) {
  obs::SloMonitor monitor(1, obs::SloConfig{});
  for (int k = 0; k < 8; ++k) monitor.observe_latency(10.0);  // p99 >> 5.0
  for (int k = 0; k < 8; ++k) monitor.evaluate(k, /*sustained=*/0.95);
  EXPECT_GE(monitor.warns() + monitor.pages(), 1u);
  ASSERT_FALSE(monitor.alerts().empty());
  EXPECT_EQ(monitor.alerts()[0].sli, "latency_p99");
}

TEST(SloMonitor, LatencyWindowEvictsExactlyAtBoundary) {
  // The latency SLI is a sliding window of the last 512 deliveries:
  // nearest-rank p99 is the 507th smallest, so six slow chunks hold it up
  // and the 513th observation — evicting the first slow one — drops it.
  obs::SloConfig config;
  ASSERT_EQ(config.latency_window, 512u);
  obs::SloMonitor monitor(0, config);
  EXPECT_EQ(monitor.latency_p99(), 0.0);
  for (int k = 0; k < 6; ++k) monitor.observe_latency(10.0);
  for (int k = 0; k < 506; ++k) monitor.observe_latency(1.0);
  EXPECT_EQ(monitor.latency_p99(), 10.0);
  monitor.observe_latency(1.0);  // 512 + 1: the oldest 10.0 falls out
  EXPECT_EQ(monitor.latency_p99(), 1.0);
  // The evaluated sample carries the windowed value.
  monitor.evaluate(1.0, /*sustained=*/0.95);
  EXPECT_EQ(monitor.state(), obs::SloState::kOk);

  obs::SloMonitor tiny(0, [] {
    obs::SloConfig small;
    small.latency_window = 4;
    return small;
  }());
  for (const double v : {4.0, 1.0, 3.0, 2.0}) tiny.observe_latency(v);
  EXPECT_EQ(tiny.latency_p99(), 4.0);
  tiny.observe_latency(0.5);  // evicts 4.0: the window is {1, 3, 2, 0.5}
  EXPECT_EQ(tiny.latency_p99(), 3.0);
  EXPECT_THROW(tiny.observe_latency(std::nan("")), std::invalid_argument);
  obs::SloConfig empty;
  empty.latency_window = 0;
  EXPECT_THROW(obs::SloMonitor(0, empty), std::invalid_argument);
}

// ----------------------------------------------- chunk sampling (ISSUE 10)

TEST(LineageSampling, GatesWholeChunkDags) {
  obs::LineageConfig config;
  config.sample_mod = 4;
  obs::LineageSink sink(config);
  // 64 chunks, each a two-hop chain 0 -> 1 -> 2.
  for (int chunk = 0; chunk < 64; ++chunk) {
    sink.record_emit(0, 0, chunk, 0.1 * chunk);
    sink.record(make_hop(chunk, 0, 1, 0.1 * chunk + 0.1, 0.1 * chunk + 0.2));
    sink.record(make_hop(chunk, 1, 2, 0.1 * chunk + 0.3, 0.1 * chunk + 0.4));
  }
  EXPECT_EQ(sink.recorded(), 128u);
  EXPECT_EQ(sink.dropped(), 0u);
  EXPECT_GT(sink.sampled_out(), 0u);
  EXPECT_EQ(sink.sampled_out() + sink.hops().size(), 128u);
  // Whole-DAG property: a retained chunk keeps BOTH its hops (and its
  // emission root, so the first hop's enqueue resolves to the emit time,
  // not the start-time fallback).
  std::map<int, int> hops_per_chunk;
  for (const obs::HopRecord& hop : sink.hops()) ++hops_per_chunk[hop.chunk];
  EXPECT_FALSE(hops_per_chunk.empty());
  for (const auto& [chunk, count] : hops_per_chunk) {
    EXPECT_EQ(count, 2) << "chunk " << chunk << " lost part of its DAG";
    EXPECT_TRUE(sink.sampled(0, chunk));
  }
  for (const obs::HopRecord& hop : sink.hops()) {
    if (hop.from == 0) {
      EXPECT_DOUBLE_EQ(hop.enqueue, 0.1 * hop.chunk);
    }
  }
  // Determinism: an identically configured sink fed the same stream dumps
  // identical bytes.
  obs::LineageSink replay(config);
  for (int chunk = 0; chunk < 64; ++chunk) {
    replay.record_emit(0, 0, chunk, 0.1 * chunk);
    replay.record(make_hop(chunk, 0, 1, 0.1 * chunk + 0.1, 0.1 * chunk + 0.2));
    replay.record(make_hop(chunk, 1, 2, 0.1 * chunk + 0.3, 0.1 * chunk + 0.4));
  }
  EXPECT_EQ(sink.to_json(), replay.to_json());
}

TEST(LineageSampling, AutoResampleBoundsMemoryDeterministically) {
  obs::LineageConfig config;
  config.auto_sample_target = 64;
  obs::LineageSink sink(config);
  for (int chunk = 0; chunk < 4000; ++chunk) {
    sink.record_emit(0, 0, chunk, 0.001 * chunk);
    sink.record(make_hop(chunk, 0, 1, 0.001 * chunk, 0.001 * chunk + 0.5));
  }
  // Memory stayed inside the budget and the factor tightened to a power of
  // two > 1; nothing fell to the capacity drop counter.
  EXPECT_LE(sink.hops().size(), 64u);
  EXPECT_GT(sink.sample_mod(), 1u);
  EXPECT_EQ(sink.sample_mod() & (sink.sample_mod() - 1), 0u);
  EXPECT_EQ(sink.dropped(), 0u);
  EXPECT_EQ(sink.sampled_out() + sink.hops().size(), 4000u);

  // The retained set is a pure function of the stream: a fresh sink
  // configured directly with the final factor retains exactly the same
  // hops (auto-resampling only decided the factor, not the membership).
  obs::LineageConfig fixed;
  fixed.sample_mod = sink.sample_mod();
  obs::LineageSink direct(fixed);
  for (int chunk = 0; chunk < 4000; ++chunk) {
    direct.record_emit(0, 0, chunk, 0.001 * chunk);
    direct.record(make_hop(chunk, 0, 1, 0.001 * chunk, 0.001 * chunk + 0.5));
  }
  EXPECT_EQ(sink.to_json(), direct.to_json());
}

TEST(LineageSampling, DumpCarriesFactorAndParsesBack) {
  obs::LineageConfig config;
  config.sample_mod = 8;
  obs::LineageSink sink(config);
  for (int chunk = 0; chunk < 256; ++chunk) {
    sink.record(make_hop(chunk, 0, 1, 1.0, 2.0));
  }
  std::vector<obs::HopRecord> hops;
  std::uint64_t dropped = 1;
  std::uint64_t sampled_out = 0;
  std::uint32_t sample_mod = 0;
  ASSERT_TRUE(obs::parse_lineage_json(sink.to_json(), hops, dropped,
                                      sampled_out, sample_mod));
  EXPECT_EQ(dropped, 0u);
  EXPECT_EQ(sample_mod, 8u);
  EXPECT_EQ(sampled_out, sink.sampled_out());
  EXPECT_EQ(hops.size(), sink.hops().size());

  // The blame table carries the factor as an annotation in both renders.
  const obs::BlameTable table =
      obs::analyze_critical_path(hops, -1, 10, sample_mod);
  EXPECT_EQ(table.sample_mod, 8u);
  EXPECT_NE(table.to_json().find("\"sample_mod\":8"), std::string::npos);
  EXPECT_NE(table.to_text().find("1-in-8 chunk sample"), std::string::npos);

  // Pre-sampling dumps (no sample fields) still load, as factor 1.
  const std::string legacy =
      "{\"dropped\":3,\"hops\":[\n"
      "{\"chunk\":0,\"from\":0,\"to\":1,\"channel\":0,\"enqueue\":1,"
      "\"start\":1,\"finish\":2,\"retransmits\":0,\"loss_time\":0,"
      "\"hol\":0,\"overtake\":0}\n]}\n";
  ASSERT_TRUE(obs::parse_lineage_json(legacy, hops, dropped, sampled_out,
                                      sample_mod));
  EXPECT_EQ(dropped, 3u);
  EXPECT_EQ(sample_mod, 1u);
  EXPECT_EQ(sampled_out, 0u);
  ASSERT_EQ(hops.size(), 1u);
}

TEST(LineageSampling, RejectsNonPowerOfTwoFactor) {
  obs::LineageConfig config;
  config.sample_mod = 3;
  EXPECT_THROW(obs::LineageSink bad(config), std::invalid_argument);
}

// ---------------------------------------- closed-loop acceptance (ISSUE 9)

/// The 500-node adaptive brownout scenario from the control acceptance
/// test: two peer classes behind a half-share channel, 10% of the nodes
/// browned out 4x at t=3 for good.
runtime::ScenarioScript lineage_script(int peers, double horizon,
                                       std::uint64_t seed) {
  runtime::Scenario scenario(horizon, seed);
  scenario.source(4000.0)
      .population({peers * 3 / 5, 0.7, gen::Dist::kUnif100})
      .population({peers * 2 / 5, 0.3, gen::Dist::kLogNormal1})
      .channel({0.0, -1.0, 1.0, /*fraction=*/0.5});
  runtime::BrownoutSpec brownout;
  brownout.time = 3.0;
  brownout.duration = -1.0;
  brownout.fraction = 0.10;
  brownout.capacity_factor = 0.25;
  scenario.brownout(brownout);
  return scenario.build();
}

/// Optimum of the platform as the brownout left it (channel share applied)
/// — sizes the chunk so the stream runs at a realistic operating point.
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

struct LineageRun {
  std::string lineage_json;
  std::string blame_json;
  std::string alerts_json;
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
  std::uint64_t slo_ticks = 0;
  double completion = 0.0;
  double attributed = 0.0;
  bool blame_valid = false;
};

LineageRun run_adaptive_with_lineage(const runtime::ScenarioScript& script,
                                     double chunk, double horizon,
                                     std::size_t planner_threads) {
  obs::LineageSink sink;
  runtime::RuntimeConfig config;
  config.collect_timing = false;
  config.broker_headroom = 0.05;
  config.planner.threads = planner_threads;
  config.dataplane.execute = true;
  config.dataplane.execution.chunk_size = chunk;
  config.dataplane.execution.receiver_window = 16;
  config.control.enabled = true;
  config.control.slo_enabled = true;
  config.lineage = &sink;
  runtime::Runtime rt(config, script.source_bandwidth, script.initial_peers);
  std::size_t next = 0;
  while (next < script.events.size() && script.events[next].time <= horizon) {
    rt.step(script.events[next++]);
  }
  runtime::Event marker;
  marker.type = runtime::EventType::kNodeJoin;  // empty: clock only
  marker.time = horizon;
  rt.step(marker);
  EXPECT_TRUE(rt.validate().empty());

  LineageRun run;
  run.lineage_json = sink.to_json();
  run.recorded = sink.recorded();
  run.dropped = sink.dropped();
  const obs::BlameTable blame = obs::analyze_critical_path(sink.hops());
  run.blame_json = blame.to_json();
  run.blame_valid = blame.valid;
  run.completion = blame.completion_time;
  run.attributed = blame.attributed_total;
  const obs::SloMonitor* slo = rt.slo_monitor(0);
  EXPECT_NE(slo, nullptr);
  if (slo != nullptr) {
    run.alerts_json = slo->alerts_json();
    run.slo_ticks = slo->ticks();
  }
  return run;
}

TEST(LineageAcceptance, ByteIdenticalAcrossPlannerThreads) {
  const runtime::ScenarioScript script = lineage_script(500, 24.0, 2026);
  const double optimum = post_brownout_optimum(script, 0.5);
  ASSERT_GT(optimum, 0.0);
  const double chunk = optimum / 40.0;

  const LineageRun one = run_adaptive_with_lineage(script, chunk, 24.0, 1);
  const LineageRun four = run_adaptive_with_lineage(script, chunk, 24.0, 4);

  // Both runs recorded a real stream, inside the sink's bound.
  EXPECT_GT(one.recorded, 0u);
  EXPECT_EQ(one.dropped, 0u);
  EXPECT_GT(one.slo_ticks, 0u);

  // The blame table attributes the whole completion time (the ISSUE 9
  // invariant: segments sum to the last node's completion within 1e-6).
  ASSERT_TRUE(one.blame_valid);
  EXPECT_GT(one.completion, 0.0);
  EXPECT_LE(std::fabs(one.attributed - one.completion), 1e-6);

  // Byte-identity across planner thread counts: the lineage dump, the
  // blame table and the SLO alert sequence replay exactly.
  EXPECT_EQ(one.recorded, four.recorded);
  EXPECT_TRUE(one.lineage_json == four.lineage_json)
      << "lineage dumps diverge across planner threads (sizes "
      << one.lineage_json.size() << " vs " << four.lineage_json.size() << ")";
  EXPECT_EQ(one.blame_json, four.blame_json);
  EXPECT_EQ(one.alerts_json, four.alerts_json);
}

}  // namespace
}  // namespace bmp
