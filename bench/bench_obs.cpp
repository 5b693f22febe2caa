// Telemetry-at-scale bench — the numbers the sharded rollup layer exists
// for (ISSUE 10):
//   * fleet: a 10k-node (--quick) / 50k-node population split into
//     per-shard runtimes, each running the adaptive brownout scenario with
//     the full observability stack on — tracing, shard telemetry registry,
//     SLO monitors and sampled lineage — and rolling up into one global
//     snapshot;
//   * memory: telemetry stays O(shards * series) — a shard's registry
//     footprint and its lineage sink's retained hops must not grow with
//     the node count (gated against a 5x smaller shard);
//   * overhead: the full stack costs <= 5% wall over the all-off baseline
//     (paired A/B, median of per-round ratios, retries fold in more rounds);
//   * identity: the rolled-up global snapshot is byte-identical across
//     shard merge orders, tree shapes, repeat runs, and planner thread
//     counts — the determinism contract the offline obs_query relies on.
// `--quick` shrinks the fleet for CI smoke.
// `--json <path>` writes the machine-readable report (git SHA stamped).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bmp/engine/planner.hpp"
#include "bmp/obs/export.hpp"
#include "bmp/obs/lineage.hpp"
#include "bmp/obs/rollup.hpp"
#include "bmp/obs/trace.hpp"
#include "bmp/runtime/runtime.hpp"
#include "bmp/runtime/scenario.hpp"
#include "bmp/util/table.hpp"
#include "bench_util.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// The adaptive brownout scenario from the control/lineage acceptance
/// tests, one instance per shard: two peer classes behind a half-share
/// channel, 10% of the nodes browned out 4x at t=3 for good.
bmp::runtime::ScenarioScript shard_script(int peers, double horizon,
                                          std::uint64_t seed) {
  bmp::runtime::Scenario scenario(horizon, seed);
  scenario.source(4000.0)
      .population({peers * 3 / 5, 0.7, bmp::gen::Dist::kUnif100})
      .population({peers * 2 / 5, 0.3, bmp::gen::Dist::kLogNormal1})
      .channel({0.0, -1.0, 1.0, /*fraction=*/0.5});
  bmp::runtime::BrownoutSpec brownout;
  brownout.time = 3.0;
  brownout.duration = -1.0;
  brownout.fraction = 0.10;
  brownout.capacity_factor = 0.25;
  scenario.brownout(brownout);
  return scenario.build();
}

/// Verified optimum of the post-brownout effective platform — sizes the
/// chunk so every shard emits a few hundred chunks over the horizon.
double post_brownout_optimum(const bmp::runtime::ScenarioScript& script,
                             double fraction) {
  std::vector<char> browned(script.initial_peers.size() + 1, 0);
  for (const bmp::runtime::Event& event : script.events) {
    if (event.type != bmp::runtime::EventType::kDegrade) continue;
    for (const bmp::runtime::Degradation& d : event.degrades) {
      browned[static_cast<std::size_t>(d.node)] = 1;
    }
    break;
  }
  std::vector<double> open_bw;
  std::vector<double> guarded_bw;
  for (std::size_t k = 0; k < script.initial_peers.size(); ++k) {
    const bmp::runtime::NodeSpec& peer = script.initial_peers[k];
    const double eff =
        peer.bandwidth * fraction * (browned[k + 1] ? 0.25 : 1.0);
    (peer.guarded ? guarded_bw : open_bw).push_back(eff);
  }
  bmp::Instance effective(script.source_bandwidth * fraction,
                          std::move(open_bw), std::move(guarded_bw));
  return bmp::engine::Planner::plan_uncached(
             effective, bmp::engine::Algorithm::kAcyclic, 0)
      .throughput;
}

/// One shard: the scenario executed + adapted to the horizon with `obs`'s
/// sinks attached and the SLO monitor on iff `slo` (all null/off = the A/B
/// baseline; everything set = the full stack the acceptance bar gates).
/// Returns the wall seconds of the whole run (construction through the
/// drain marker).
double run_shard(const bmp::runtime::ScenarioScript& script, double chunk,
                 double horizon, std::size_t planner_threads,
                 const std::string& prefix, const bmp::obs::Hooks& obs,
                 bool slo) {
  bmp::runtime::RuntimeConfig config;
  config.collect_timing = false;
  config.broker_headroom = 0.05;
  config.planner.threads = planner_threads;
  config.dataplane.execute = true;
  config.dataplane.execution.chunk_size = chunk;
  config.dataplane.execution.receiver_window = 16;
  config.control.enabled = true;
  config.control.slo_enabled = slo;
  static_cast<bmp::obs::Hooks&>(config) = obs;
  config.telemetry_node_prefix = prefix;

  const auto start = std::chrono::steady_clock::now();
  bmp::runtime::Runtime rt(config, script.source_bandwidth,
                           script.initial_peers);
  std::size_t next = 0;
  while (next < script.events.size() && script.events[next].time <= horizon) {
    rt.step(script.events[next++]);
  }
  bmp::runtime::Event marker;
  marker.type = bmp::runtime::EventType::kNodeJoin;  // empty: clock only
  marker.time = horizon;
  rt.step(marker);
  return seconds_since(start);
}

}  // namespace

int main(int argc, char** argv) {
  bmp::benchutil::CommonCli cli(argc, argv);
  const bool quick = cli.quick;
  const int shards = quick ? 20 : 25;
  const int peers = quick ? 500 : 2000;
  const double horizon = quick ? 5.0 : 6.0;
  const int ab_rounds = quick ? 21 : 11;
  const std::size_t lineage_budget = 1u << 13;  // retained-hop target
  const std::size_t planner_threads = 4;

  bmp::util::print_banner(std::cout,
                          "Telemetry at scale — sharded rollup bench");
  std::cout << shards << " shards x " << peers << " peers = "
            << shards * peers << " nodes, full obs stack on"
            << (quick ? "  [quick]\n\n" : "\n\n");

  bmp::benchutil::JsonReport json;
  bmp::benchutil::add_header(json, "obs");
  json.add("bench_shards", shards);
  json.add("peers_per_shard", peers);
  json.add("total_nodes", shards * peers);
  bool ok = true;

  // Every shard is its own population (distinct seed), planned and adapted
  // independently; one chunk size serves the whole fleet.
  std::vector<bmp::runtime::ScenarioScript> scripts;
  scripts.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    scripts.push_back(shard_script(
        peers, horizon, 2026 + static_cast<std::uint64_t>(s)));
  }
  const double optimum = post_brownout_optimum(scripts.front(), 0.5);
  if (optimum <= 0.0) {
    std::cerr << "degenerate scenario: post-brownout optimum is zero\n";
    return 1;
  }
  const double chunk = optimum / 20.0;

  // ------------------------------------------------ fleet, full stack on
  bmp::obs::LineageConfig lineage_config;
  lineage_config.auto_sample_target = lineage_budget;
  std::vector<bmp::obs::ShardRegistry> regs(
      static_cast<std::size_t>(shards));
  std::vector<bmp::obs::LineageSink> sinks;
  sinks.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) sinks.emplace_back(lineage_config);

  const auto fleet_start = std::chrono::steady_clock::now();
  std::uint64_t trace_events = 0;
  for (int s = 0; s < shards; ++s) {
    bmp::obs::TraceSink trace;  // per-shard timeline, bounded ring
    bmp::obs::Hooks obs;
    obs.telemetry = &regs[static_cast<std::size_t>(s)];
    obs.lineage = &sinks[static_cast<std::size_t>(s)];
    obs.trace = &trace;
    obs.profiler = s == 0 ? cli.profiler() : nullptr;
    run_shard(scripts[static_cast<std::size_t>(s)], chunk, horizon,
              planner_threads, "s" + std::to_string(s) + ":", obs,
              /*slo=*/true);
    trace_events += trace.events();
  }
  const double fleet_s = seconds_since(fleet_start);

  std::vector<bmp::obs::RollupSnapshot> snaps;
  snaps.reserve(regs.size());
  for (const bmp::obs::ShardRegistry& reg : regs) {
    snaps.push_back(reg.snapshot());
  }
  const bmp::obs::RollupSnapshot global = bmp::obs::rollup(snaps);
  const std::uint64_t delivered =
      global.counters.count("dataplane.delivered") != 0
          ? global.counters.at("dataplane.delivered")
          : 0;
  const std::uint64_t latency_samples =
      global.sketches.count("dataplane.chunk_latency") != 0
          ? global.sketches.at("dataplane.chunk_latency").count()
          : 0;
  std::uint64_t lineage_recorded = 0;
  std::size_t lineage_retained = 0;
  for (bmp::obs::LineageSink& sink : sinks) {
    lineage_recorded += sink.recorded();
    lineage_retained = std::max(lineage_retained, sink.hops().size());
  }
  std::cout << "fleet: " << delivered << " chunks delivered, "
            << latency_samples << " latency samples sketched, "
            << lineage_recorded << " lineage hops recorded ("
            << fleet_s << "s wall, " << trace_events
            << " trace events on shard timelines)\n";
  ok = ok && delivered > 0 && latency_samples > 0;

  json.add("fleet_wall_seconds", fleet_s);
  json.add("delivered_total", delivered);
  json.add("latency_samples", latency_samples);
  json.add("lineage_recorded", lineage_recorded);
  json.add("trace_events", trace_events);

  // -------------------------------------- gate: byte-identical rollups
  // Merge order, tree shape, a repeat run, and the planner thread count
  // must all be invisible in the global snapshot's bytes.
  const std::string expected = global.to_json();
  std::vector<bmp::obs::RollupSnapshot> reversed(snaps.rbegin(),
                                                 snaps.rend());
  bool identical = bmp::obs::rollup(reversed).to_json() == expected;
  bmp::obs::RollupTree tree(3);
  for (const bmp::obs::RollupSnapshot& snap : snaps) tree.add(snap);
  identical = identical && tree.global().to_json() == expected;

  bmp::obs::ShardRegistry repeat_reg;
  bmp::obs::LineageSink repeat_sink(lineage_config);
  {
    bmp::obs::Hooks obs;
    obs.telemetry = &repeat_reg;
    obs.lineage = &repeat_sink;
    run_shard(scripts.front(), chunk, horizon, planner_threads, "s0:", obs,
              /*slo=*/true);
  }
  const bool repeat_identical =
      repeat_reg.snapshot().to_json() == snaps.front().to_json() &&
      repeat_sink.to_json() == sinks.front().to_json();
  bmp::obs::ShardRegistry serial_reg;
  {
    bmp::obs::Hooks obs;
    obs.telemetry = &serial_reg;
    run_shard(scripts.front(), chunk, horizon, /*planner_threads=*/1, "s0:",
              obs, /*slo=*/true);
  }
  const bool thread_identical =
      serial_reg.snapshot().to_json() == snaps.front().to_json();
  identical = identical && repeat_identical && thread_identical;
  ok = ok && identical;
  std::cout << (identical ? "[OK] " : "[WARN] ")
            << "global rollup byte-identical across merge orders, tree "
               "shapes, a repeat run, and planner threads 1 vs "
            << planner_threads << "\n";
  json.add("rollup_identical", identical ? 1 : 0);

  // ------------------------------------------- gate: memory stays O(series)
  // The same scenario on a 5x smaller shard must cost the same telemetry
  // memory: the registry is O(series) (sketch buckets and top-K capacity
  // are fixed), the lineage sink resamples itself to its hop budget.
  bmp::obs::ShardRegistry small_reg;
  bmp::obs::LineageSink small_sink(lineage_config);
  {
    const bmp::runtime::ScenarioScript small_script =
        shard_script(peers / 5, horizon, 2026);
    bmp::obs::Hooks obs;
    obs.telemetry = &small_reg;
    obs.lineage = &small_sink;
    run_shard(small_script, chunk, horizon, planner_threads, "s0:", obs,
              /*slo=*/true);
  }
  const std::size_t mem_large = regs.front().memory_bytes();
  const std::size_t mem_small = small_reg.memory_bytes();
  const double mem_growth =
      mem_small > 0 ? static_cast<double>(mem_large) /
                          static_cast<double>(mem_small)
                    : 0.0;
  const bool mem_bounded = regs.front().series() == small_reg.series() &&
                           mem_growth > 0.0 && mem_growth < 2.0 &&
                           lineage_retained <= lineage_budget &&
                           small_sink.hops().size() <= lineage_budget;
  ok = ok && mem_bounded;
  std::cout << (mem_bounded ? "[OK] " : "[WARN] ")
            << "telemetry memory bounded: " << mem_large << "B at " << peers
            << " peers vs " << mem_small << "B at " << peers / 5
            << " peers (" << mem_growth << "x for 5x the nodes, "
            << regs.front().series() << " series), lineage retains "
            << lineage_retained << " <= " << lineage_budget
            << " hops (1-in-" << sinks.front().sample_mod()
            << " chunk sample)\n";
  json.add("registry_bytes", static_cast<std::uint64_t>(mem_large));
  json.add("registry_bytes_small_shard",
           static_cast<std::uint64_t>(mem_small));
  json.add("registry_series",
           static_cast<std::uint64_t>(regs.front().series()));
  json.add("memory_growth_5x_nodes", mem_growth);
  json.add("lineage_retained", static_cast<std::uint64_t>(lineage_retained));
  json.add("lineage_sample_mod",
           static_cast<std::uint64_t>(sinks.front().sample_mod()));

  // ------------------------------------------- gate: <= 5% wall overhead
  // Full stack vs all-off on one shard, measured with the shared paired
  // A/B estimator (bench_util.hpp). The A/B rounds run the planner
  // single-threaded: pool scheduling jitter is identical noise on both
  // sides and only widens the estimator's tails, while the event-loop path
  // the stack actually instruments is the same either way (the threads=4
  // fleet and identity runs cover the multi-threaded contract). Each run
  // constructs its sinks fresh, so a run's heap layout is its own draw.
  const auto ab_run = [&](bool obs_on, int /*round*/) {
    bmp::obs::ShardRegistry reg;
    bmp::obs::LineageSink sink(lineage_config);
    bmp::obs::TraceSink trace;
    bmp::obs::Hooks obs;
    if (obs_on) {
      obs.telemetry = &reg;
      obs.lineage = &sink;
      obs.trace = &trace;
    }
    return run_shard(scripts.front(), chunk, horizon, /*planner_threads=*/1,
                     "s0:", obs, /*slo=*/obs_on);
  };
  const bmp::benchutil::AbEstimate ab =
      bmp::benchutil::paired_ab_overhead(ab_rounds, 1.05, ab_run);
  const bool cheap = ab.ratio <= 1.05;
  ok = ok && cheap;
  std::cout << (cheap ? "[OK] " : "[WARN] ") << "full obs stack costs "
            << ab.ratio << "x wall vs all-off (bar: <= 1.05x, baseline "
            << ab.off_wall * 1e3 << "ms)\n";
  json.add("obs_overhead_x", ab.ratio);
  json.add("ab_on_wall_seconds", ab.on_wall);
  json.add("ab_off_wall_seconds", ab.off_wall);

  // ------------------------------------------------------- global rollup
  std::cout << "\n" << global.to_string();
  json.add_string("status", ok ? "ok" : "warn");
  bmp::benchutil::add_profile(json, cli.prof);
  json.add_raw("rollup", bmp::obs::to_json(global));
  if (!cli.json.empty()) {
    if (json.write(cli.json)) {
      std::cout << "json written to " << cli.json << "\n";
    } else {
      std::cout << "[WARN] could not write " << cli.json << "\n";
      ok = false;
    }
  }
  if (!cli.metrics.empty()) {
    std::ofstream out(cli.metrics);
    out << bmp::obs::to_prometheus(global);
    ok = static_cast<bool>(out) && ok;
  }
  if (!cli.lineage.empty()) {
    std::ofstream out(cli.lineage);
    out << sinks.front().to_json();
    ok = static_cast<bool>(out) && ok;
  }
  ok = cli.write_profile() && ok;
  return ok ? 0 : 1;
}
