// Sharded rollup tests: ShardRegistry handle registration and recording,
// by-name recording, erase and slot reuse, label checks on names and
// top-K keys, the exact commutative/associative snapshot merge (byte-level
// JSON identity for every shard order and every RollupTree shape), the
// lossless snapshot JSON round-trip and a seeded mutation harness against
// the parser, the Prometheus/JSON exporter goldens that document the
// sketch relative-error contract and the timing.* convention — and the
// 500-node acceptance bar: the adaptive brownout scenario with telemetry
// on yields byte-identical rollups across planner thread counts, sketch
// quantiles within alpha of the exact sorted latencies, and
// order-independent two-shard merges.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "bmp/engine/planner.hpp"
#include "bmp/obs/export.hpp"
#include "bmp/obs/lineage.hpp"
#include "bmp/obs/rollup.hpp"
#include "bmp/runtime/runtime.hpp"
#include "bmp/runtime/scenario.hpp"
#include "bmp/util/rng.hpp"

namespace bmp {
namespace {

// --------------------------------------------------------- registry units

TEST(ShardRegistry, HandlesRecordIntoSnapshot) {
  obs::ShardRegistry reg;
  const auto delivered = reg.counter_handle("dataplane.delivered");
  const auto alive =
      reg.gauge_handle("population.alive", obs::GaugeReduction::kSum);
  const auto latency =
      reg.sketch_handle("latency", obs::SketchConfig{0.01, 1e-9});
  const auto worst = reg.topk_handle("worst", 4);

  reg.inc(delivered, 41);
  reg.inc(delivered);
  reg.set(alive, 500.0);
  reg.observe(latency, 2.0);
  reg.offer(worst, "node:7", 3);

  EXPECT_EQ(reg.counter_value(delivered), 42u);
  EXPECT_EQ(reg.gauge_value(alive), 500.0);
  EXPECT_EQ(reg.sketch_value(latency).count(), 1u);
  EXPECT_EQ(reg.topk_value(worst).total_weight(), 3u);
  EXPECT_EQ(reg.series(), 4u);
  EXPECT_GT(reg.memory_bytes(), 0u);

  const obs::RollupSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.shards, 1);
  EXPECT_EQ(snap.counters.at("dataplane.delivered"), 42u);
  EXPECT_EQ(snap.gauges.at("population.alive").value, 500.0);
  EXPECT_EQ(snap.sketches.at("latency").count(), 1u);
  EXPECT_EQ(snap.topks.at("worst").top(1).at(0).key, "node:7");
}

TEST(ShardRegistry, RegistrationIsIdempotentAndConflictsThrow) {
  obs::ShardRegistry reg;
  const auto a = reg.counter_handle("c");
  const auto b = reg.counter_handle("c");
  EXPECT_EQ(a.index, b.index);
  reg.gauge_handle("g", obs::GaugeReduction::kSum);
  EXPECT_NO_THROW(reg.gauge_handle("g", obs::GaugeReduction::kSum));
  EXPECT_THROW(reg.gauge_handle("g", obs::GaugeReduction::kMax),
               std::invalid_argument);
  reg.sketch_handle("s", obs::SketchConfig{0.01, 1e-9});
  EXPECT_THROW(reg.sketch_handle("s", obs::SketchConfig{0.02, 1e-9}),
               std::invalid_argument);
  reg.topk_handle("t", 8);
  EXPECT_THROW(reg.topk_handle("t", 16), std::invalid_argument);
}

TEST(ShardRegistry, ByNameRecordingFindsRegisteredSeries) {
  obs::ShardRegistry reg;
  const auto alive = reg.gauge_handle("alive", obs::GaugeReduction::kSum);
  reg.set("alive", 7.0);  // by name: keeps the registered sum reduction
  EXPECT_EQ(reg.gauge_value(alive), 7.0);
  EXPECT_EQ(reg.snapshot().gauges.at("alive").reduction,
            obs::GaugeReduction::kSum);
  reg.inc("hits", 2);
  reg.inc(reg.counter_handle("hits"));
  EXPECT_EQ(reg.counter("hits"), 3u);
  reg.set_counter("hits", 10);
  EXPECT_EQ(reg.counter("hits"), 10u);
  EXPECT_EQ(reg.counter("absent"), 0u);
  EXPECT_EQ(reg.gauge("absent"), 0.0);
  EXPECT_EQ(reg.sketch("absent"), nullptr);
  reg.observe("lat", 2.0);
  ASSERT_NE(reg.sketch("lat"), nullptr);
  EXPECT_EQ(reg.sketch("lat")->count(), 1u);
  EXPECT_EQ(reg.series(), 3u);
}

TEST(ShardRegistry, EraseFreesSlotsAndKeepsOtherHandlesValid) {
  // Per-channel series come and go forever; the registry must not grow
  // with them, and interned handles to other series must keep recording
  // into their own cells across every registration and erase.
  obs::ShardRegistry reg;
  const auto kept = reg.counter_handle("events.total");
  const auto lat = reg.sketch_handle("latency");
  std::size_t bytes_after_warmup = 0;
  for (int channel = 0; channel < 1000; ++channel) {
    const std::string base = "channel." + std::to_string(channel) + ".";
    reg.set(base + "fraction", 0.5);
    reg.inc(base + "opens");
    reg.observe(base + "latency", 1.0 + channel);
    reg.inc(kept);
    reg.observe(lat, 2.0);
    EXPECT_EQ(reg.series(), 5u);
    reg.erase(base + "fraction");
    reg.erase(base + "opens");
    reg.erase(base + "latency");
    reg.erase("never.existed");  // no-op
    if (channel == 10) bytes_after_warmup = reg.memory_bytes();
  }
  EXPECT_EQ(reg.series(), 2u);
  EXPECT_LE(reg.memory_bytes(), bytes_after_warmup + 256);
  EXPECT_EQ(reg.counter_value(kept), 1000u);
  EXPECT_EQ(reg.sketch_value(lat).count(), 1000u);
  const obs::RollupSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.size(), 1u);
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_EQ(snap.sketches.size(), 1u);
  // A re-created series starts fresh in its reused slot.
  reg.observe("channel.3.latency", 5.0);
  EXPECT_EQ(reg.sketch("channel.3.latency")->count(), 1u);
  EXPECT_EQ(reg.sketch("channel.3.latency")->max(), 5.0);
}

TEST(ShardRegistry, RejectsNamesAndKeysThatWouldBreakExports) {
  // A quote, backslash or control character would corrupt the JSON dump
  // (it then fails its own parser) and the Prometheus label syntax.
  obs::ShardRegistry reg;
  const auto hot = reg.topk_handle("hot.node_retransmits");
  EXPECT_THROW(reg.offer(hot, "node:a\"b:7"), std::invalid_argument);
  EXPECT_THROW(reg.offer(hot, "node:a\\b"), std::invalid_argument);
  EXPECT_THROW(reg.offer(hot, "node:\n"), std::invalid_argument);
  EXPECT_THROW(reg.offer(hot, ""), std::invalid_argument);
  EXPECT_NO_THROW(reg.offer(hot, "edge:s0:1->2"));
  EXPECT_THROW(reg.counter_handle("a\"b"), std::invalid_argument);
  EXPECT_THROW(reg.inc("a\\b"), std::invalid_argument);
  EXPECT_THROW(reg.set(std::string("a\x01"), 1.0), std::invalid_argument);
  EXPECT_THROW(reg.observe("tab\tname", 1.0), std::invalid_argument);
  EXPECT_THROW(reg.gauge_handle(""), std::invalid_argument);
  EXPECT_THROW(reg.sketch_handle("ok", obs::SketchConfig{0.0, 1e-9}),
               std::invalid_argument);
  // Nothing rejected was registered; what was accepted dumps and parses.
  EXPECT_EQ(reg.series(), 1u);
  obs::RollupSnapshot parsed;
  EXPECT_TRUE(obs::parse_rollup_json(reg.snapshot().to_json(), parsed));

  // The runtime checks its key prefix once, at construction.
  std::vector<runtime::NodeSpec> peers(1);
  peers[0].bandwidth = 1.0;
  runtime::RuntimeConfig config;
  config.telemetry_node_prefix = "s0:";
  EXPECT_NO_THROW(runtime::Runtime(config, 4.0, peers));
  config.telemetry_node_prefix = "a\"b:";
  EXPECT_THROW(runtime::Runtime(config, 4.0, peers), std::invalid_argument);
}

// ------------------------------------------------------------ merge units

/// S shards with overlapping series and deterministic per-shard streams.
std::vector<obs::RollupSnapshot> make_shards(int count) {
  std::vector<obs::RollupSnapshot> shards;
  for (int s = 0; s < count; ++s) {
    obs::ShardRegistry reg;
    const auto delivered = reg.counter_handle("delivered");
    const auto alive = reg.gauge_handle("alive", obs::GaugeReduction::kSum);
    const auto low = reg.gauge_handle("low_water", obs::GaugeReduction::kMin);
    const auto high = reg.gauge_handle("high_water", obs::GaugeReduction::kMax);
    const auto lat = reg.sketch_handle("latency", obs::SketchConfig{0.01, 1e-9});
    const auto worst = reg.topk_handle("worst", 3);
    reg.inc(delivered, static_cast<std::uint64_t>(100 + s));
    reg.set(alive, 10.0 * (s + 1));
    reg.set(low, 5.0 - s);
    reg.set(high, 5.0 + s);
    for (int k = 0; k < 200; ++k) {
      reg.observe(lat, 0.001 * ((k * 37 + s * 101) % 997 + 1));
    }
    for (int k = 0; k < 50; ++k) {
      reg.offer(worst, "n" + std::to_string((k * k + s) % 7));
    }
    shards.push_back(reg.snapshot());
  }
  return shards;
}

TEST(Rollup, MergeOrderAndTreeShapeAreByteIdentical) {
  const std::vector<obs::RollupSnapshot> shards = make_shards(7);
  const obs::RollupSnapshot forward = obs::rollup(shards);
  EXPECT_EQ(forward.shards, 7);

  std::vector<obs::RollupSnapshot> reversed(shards.rbegin(), shards.rend());
  EXPECT_EQ(obs::rollup(reversed).to_json(), forward.to_json());

  std::vector<obs::RollupSnapshot> rotated(shards.begin() + 3, shards.end());
  rotated.insert(rotated.end(), shards.begin(), shards.begin() + 3);
  EXPECT_EQ(obs::rollup(rotated).to_json(), forward.to_json());

  for (const int fanout : {2, 3, 8}) {
    obs::RollupTree tree(fanout);
    for (const obs::RollupSnapshot& shard : shards) tree.add(shard);
    EXPECT_EQ(tree.global().to_json(), forward.to_json())
        << "fanout " << fanout;
  }

  // Reductions folded as configured.
  EXPECT_EQ(forward.counters.at("delivered"), 100u * 7 + 21);
  EXPECT_EQ(forward.gauges.at("alive").value, 10.0 * 28);
  EXPECT_EQ(forward.gauges.at("low_water").value, -1.0);
  EXPECT_EQ(forward.gauges.at("high_water").value, 11.0);
}

TEST(Rollup, MergeRejectsConflictingSeriesDefinitions) {
  obs::ShardRegistry a;
  a.gauge_handle("g", obs::GaugeReduction::kSum);
  obs::ShardRegistry b;
  b.gauge_handle("g", obs::GaugeReduction::kMax);
  obs::RollupSnapshot left = a.snapshot();
  EXPECT_THROW(left.merge(b.snapshot()), std::invalid_argument);
}

TEST(Rollup, JsonRoundTripIsLossless) {
  // Round-trip both a single shard and a merged rollup whose top-K summary
  // exceeds its streaming capacity — the case obs_query relies on.
  const std::vector<obs::RollupSnapshot> shards = make_shards(5);
  const obs::RollupSnapshot global = obs::rollup(shards);
  for (const obs::RollupSnapshot* snap : {&shards[0], &global}) {
    obs::RollupSnapshot parsed;
    ASSERT_TRUE(obs::parse_rollup_json(snap->to_json(), parsed));
    EXPECT_EQ(parsed.to_json(), snap->to_json());
    // A reloaded snapshot merges like the original (offline == online).
    obs::RollupSnapshot a = *snap;
    a.merge(shards[1]);
    parsed.merge(shards[1]);
    EXPECT_EQ(parsed.to_json(), a.to_json());
  }
  obs::RollupSnapshot bad;
  EXPECT_FALSE(obs::parse_rollup_json("{\"not\":\"a rollup\"}", bad));
}

/// Replaces the first occurrence of `from` in `text` (which must exist).
std::string patch(std::string text, const std::string& from,
                  const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

TEST(Rollup, ParserRejectsOutOfRangeFields) {
  obs::ShardRegistry reg;
  reg.inc("delivered", 5);
  reg.set("alive", 3.0);
  reg.observe("latency", 1.0);
  reg.offer(reg.topk_handle("worst", 4), "node:1", 5);
  const std::string dump = reg.snapshot().to_json();
  obs::RollupSnapshot out;
  ASSERT_TRUE(obs::parse_rollup_json(dump, out));
  ASSERT_TRUE(obs::parse_rollup_json("\n " + dump + "\n", out));

  const std::vector<std::string> bad = {
      patch(dump, "\"alpha\":0.01", "\"alpha\":0"),
      patch(dump, "\"alpha\":0.01", "\"alpha\":1.5"),
      patch(dump, "\"alpha\":0.01", "\"alpha\":1e-300"),
      patch(dump, "\"min_value\":1.0000000000000001e-09",
            "\"min_value\":0"),
      patch(dump, "\"offset\":0", "\"offset\":2147483647"),
      patch(dump, "\"offset\":0", "\"offset\":-99999999999"),
      patch(dump, "\"min\":1", "\"min\":-1"),
      patch(dump, "\"min\":1", "\"min\":2"),
      patch(dump, "\"max\":1", "\"max\":1e999"),
      patch(dump, "\"zero\":0", "\"zero\":18446744073709551615"),
      patch(dump, "\"shards\":1", "\"shards\":3000000000"),
      patch(dump, "\"delivered\":5", "\"delivered\":-5"),
      patch(dump, "\"delivered\":5", "\"delivered\":99999999999999999999"),
      patch(dump, "\"delivered\":5", "\"delivered\":05"),
      patch(dump, "\"value\":3", "\"value\":nan"),
      patch(dump, "\"capacity\":4", "\"capacity\":0"),
      patch(dump, "[\"node:1\",5,0]", "[\"node:1\",5,6]"),
      patch(dump, "\"node:1\"", "\"node:\\1\""),
      patch(dump, "\"delivered\"", "\"deli\tvered\""),
      patch(dump, "\"delivered\"", "\"\""),
  };
  for (const std::string& text : bad) {
    bool parsed = true;
    EXPECT_NO_THROW(parsed = obs::parse_rollup_json(text, out)) << text;
    EXPECT_FALSE(parsed) << text;
  }
}

TEST(Rollup, SeededMutantsAreRejectedOrRoundTripExactly) {
  // Truncations, bit flips and splices of a valid multi-series dump: the
  // parser must never throw, and anything it accepts must re-dump
  // byte-identically and render through every exporter.
  const std::string dump = obs::rollup(make_shards(3)).to_json();
  util::Xoshiro256 rng(20260417);
  int accepted = 0;
  int rejected = 0;
  for (int k = 0; k < 12000; ++k) {
    std::string mutant = dump;
    switch (k % 3) {
      case 0:  // truncate
        mutant.resize(rng.below(mutant.size()));
        break;
      case 1: {  // flip one bit
        const std::size_t at = rng.below(mutant.size());
        mutant[at] = static_cast<char>(
            static_cast<unsigned char>(mutant[at]) ^ (1u << rng.below(8)));
        break;
      }
      default: {  // splice a chunk of the dump over another position
        const std::size_t from = rng.below(dump.size());
        const std::size_t len = 1 + rng.below(24);
        const std::size_t to = rng.below(mutant.size());
        mutant.replace(to, len, dump.substr(from, len));
        break;
      }
    }
    obs::RollupSnapshot parsed;
    bool ok = false;
    ASSERT_NO_THROW(ok = obs::parse_rollup_json(mutant, parsed)) << mutant;
    if (!ok) {
      ++rejected;
      continue;
    }
    ++accepted;
    ASSERT_EQ(parsed.to_json(), mutant);
    ASSERT_NO_THROW({
      (void)obs::to_prometheus(parsed, true);
      (void)obs::to_json(parsed, true);
      (void)parsed.to_string();
    });
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

// -------------------------------------------------------- exporter goldens

/// One observation of 1.0 in an alpha = 0.01 sketch: gamma = 1.01/0.99,
/// the value lands in bucket 0 (range (gamma^-1, 1]) whose representative
/// is 2/(gamma+1) = 0.99 — exactly the documented worst-case relative
/// error: |0.99 - 1.0| = alpha * 1.0. The sum carries that error; the
/// quantiles clamp to [min, max] = [1, 1]. The timing.* series are
/// excluded from the default exports. The goldens below pin that
/// rendering.
obs::RollupSnapshot golden_snapshot() {
  obs::ShardRegistry reg;
  const auto c = reg.counter_handle("events.total");
  const auto g = reg.gauge_handle("alive", obs::GaugeReduction::kSum);
  const auto s = reg.sketch_handle("latency", obs::SketchConfig{0.01, 1e-9});
  const auto t = reg.topk_handle("worst", 4);
  reg.inc(c, 3);
  reg.set(g, 2.0);
  reg.observe(s, 1.0);
  reg.offer(t, "node:1", 5);
  reg.offer(t, "node:2", 2);
  reg.observe("timing.event_loop_us", 123.0);
  reg.inc("timing.fake_count");
  return reg.snapshot();
}

TEST(RollupExport, PrometheusGolden) {
  const std::string expected =
      "# TYPE bmp_events_total_total counter\n"
      "bmp_events_total_total 3\n"
      "# TYPE bmp_alive gauge\n"
      "bmp_alive 2\n"
      "# TYPE bmp_latency summary\n"
      "bmp_latency{quantile=\"0.5\"} 1\n"
      "bmp_latency{quantile=\"0.9\"} 1\n"
      "bmp_latency{quantile=\"0.99\"} 1\n"
      "bmp_latency_sum 0.99\n"
      "bmp_latency_count 1\n"
      "# TYPE bmp_latency_sketch histogram\n"
      "bmp_latency_sketch_bucket{le=\"1\"} 1\n"
      "bmp_latency_sketch_bucket{le=\"+Inf\"} 1\n"
      "bmp_latency_sketch_sum 0.99\n"
      "bmp_latency_sketch_count 1\n"
      "# TYPE bmp_worst gauge\n"
      "bmp_worst{key=\"node:1\"} 5\n"
      "bmp_worst{key=\"node:2\"} 2\n";
  EXPECT_EQ(obs::to_prometheus(golden_snapshot()), expected);
  // The timing.* convention: excluded by default, included on request.
  const std::string timed = obs::to_prometheus(golden_snapshot(), true);
  EXPECT_NE(timed.find("bmp_timing_fake_count_total 1"), std::string::npos);
  EXPECT_NE(timed.find("bmp_timing_event_loop_us_count 1"),
            std::string::npos);
}

TEST(RollupExport, JsonGolden) {
  const std::string expected =
      "{\"shards\":1,\"counters\":{\"events.total\":3},"
      "\"gauges\":{\"alive\":2},"
      "\"sketches\":{\"latency\":{\"count\":1,\"sum\":0.99,\"min\":1,"
      "\"max\":1,\"mean\":0.99,\"p50\":1,\"p90\":1,\"p99\":1,"
      "\"alpha\":0.01}},"
      "\"topk\":{\"worst\":[[\"node:1\",5,0],[\"node:2\",2,0]]}}";
  EXPECT_EQ(obs::to_json(golden_snapshot()), expected);
  const std::string timed = obs::to_json(golden_snapshot(), true);
  EXPECT_NE(timed.find("\"timing.event_loop_us\":{\"count\":1"),
            std::string::npos);
  EXPECT_NE(timed.find("\"timing.fake_count\":1"), std::string::npos);
  static_assert(obs::is_timing("timing.x"));
  static_assert(!obs::is_timing("tim.x"));
}

TEST(RollupExport, TextFormHonoursTheTimingConvention) {
  const obs::RollupSnapshot snap = golden_snapshot();
  const std::string text = snap.to_string(/*include_timing=*/false);
  EXPECT_NE(text.find("counter events.total 3\n"), std::string::npos);
  EXPECT_NE(text.find("gauge alive 2 (sum)\n"), std::string::npos);
  EXPECT_NE(text.find("sketch latency count=1 sum=0.99 min=1 max=1 p50=1"),
            std::string::npos);
  EXPECT_NE(text.find("  node:1 count=5 (overcount<=0)\n"),
            std::string::npos);
  EXPECT_EQ(text.find(obs::kTimingPrefix), std::string::npos);
  EXPECT_NE(snap.to_string().find("sketch timing.event_loop_us count=1"),
            std::string::npos);
}

// ------------------------------------- 500-node acceptance (ISSUE 10)

/// The 500-node adaptive brownout scenario from the control/lineage
/// acceptance tests: two peer classes behind a half-share channel, 10% of
/// the nodes browned out 4x at t=3 for good.
runtime::ScenarioScript telemetry_script(int peers, double horizon,
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

void run_with_telemetry(const runtime::ScenarioScript& script, double chunk,
                        double horizon, std::size_t planner_threads,
                        const std::string& prefix, obs::ShardRegistry& reg,
                        obs::LineageSink* sink) {
  runtime::RuntimeConfig config;
  config.collect_timing = false;
  config.broker_headroom = 0.05;
  config.planner.threads = planner_threads;
  config.dataplane.execute = true;
  config.dataplane.execution.chunk_size = chunk;
  config.dataplane.execution.receiver_window = 16;
  config.control.enabled = true;
  config.control.slo_enabled = true;
  config.telemetry = &reg;
  config.telemetry_node_prefix = prefix;
  config.lineage = sink;
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
  // One registry: the runtime records every series into the telemetry
  // registry it was handed.
  EXPECT_EQ(&rt.metrics(), &reg);
  EXPECT_EQ(reg.snapshot().counters.at("dataplane.delivered"),
            rt.metrics().counter("dataplane.delivered"));
}

TEST(RollupAcceptance, FiveHundredNodeScenarioTelemetry) {
  const runtime::ScenarioScript script = telemetry_script(500, 24.0, 2026);
  const double optimum = post_brownout_optimum(script, 0.5);
  ASSERT_GT(optimum, 0.0);
  const double chunk = optimum / 40.0;

  obs::LineageSink sink;
  obs::ShardRegistry one;
  obs::ShardRegistry four;
  run_with_telemetry(script, chunk, 24.0, 1, "a:", one, &sink);
  run_with_telemetry(script, chunk, 24.0, 4, "a:", four, nullptr);

  const obs::RollupSnapshot snap_one = one.snapshot();
  const obs::RollupSnapshot snap_four = four.snapshot();
  EXPECT_GT(snap_one.counters.at("dataplane.delivered"), 0u);
  EXPECT_GT(snap_one.sketches.at("dataplane.chunk_latency").count(), 0u);

  // Byte-identity across planner thread counts: the rolled-up telemetry is
  // part of the determinism contract, like the lineage dump before it.
  EXPECT_EQ(snap_one.to_json(), snap_four.to_json());

  // Quantile relative error vs an exact sort of the scenario's per-hop
  // delivery delays: feed the exact multiset into a fresh sketch and
  // compare against the sorted truth at the exported quantiles.
  std::vector<double> delays;
  for (const obs::HopRecord& hop : sink.hops()) {
    delays.push_back(hop.finish - hop.enqueue);
  }
  ASSERT_GT(delays.size(), 1000u);
  obs::Sketch sketch(obs::SketchConfig{0.01, 1e-9});
  for (const double d : delays) sketch.record(d);
  std::sort(delays.begin(), delays.end());
  for (const double q : {0.5, 0.9, 0.99}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(delays.size())));
    const double exact = delays[rank == 0 ? 0 : rank - 1];
    EXPECT_LE(std::fabs(sketch.quantile(q) - exact), 0.01 * exact + 1e-12)
        << "q=" << q;
  }

  // A second shard (different node prefix, same workload) merges into the
  // global snapshot identically from either side, flat or tree-shaped.
  obs::ShardRegistry other;
  run_with_telemetry(script, chunk, 24.0, 1, "b:", other, nullptr);
  const obs::RollupSnapshot snap_other = other.snapshot();
  obs::RollupSnapshot ab = snap_one;
  ab.merge(snap_other);
  obs::RollupSnapshot ba = snap_other;
  ba.merge(snap_one);
  EXPECT_EQ(ab.shards, 2);
  EXPECT_EQ(ab.to_json(), ba.to_json());
  obs::RollupTree tree(2);
  tree.add(snap_one);
  tree.add(snap_other);
  EXPECT_EQ(tree.global().to_json(), ab.to_json());
}

}  // namespace
}  // namespace bmp
