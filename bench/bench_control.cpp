// Control-plane bench — the closed loop's headline number: on a 500-node
// live stream where 10% of the peers suffer a 4x effective-capacity
// brownout mid-stream (the planner is not told), how much of the
// *post-brownout optimum* does the adaptive runtime recover for its worst
// node, against the frozen (non-adaptive) baseline?
//   * recovered-throughput ratio: worst-node delivered rate over the
//     converged window / optimum of the effective platform;
//   * detection-to-action latency and the controller's action ledger;
//   * wall-clock cost of running the loop (events/s with control on).
// `--quick` shrinks the platform for CI smoke.
// Observability CLI (benchutil::CommonCli): `--json` machine-readable
// report with the final metrics snapshot embedded, `--trace` timeline,
// `--profile` work attribution, `--metrics` Prometheus snapshot — all on
// the adaptive run (the headline the perf gate tracks).
#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bmp/engine/planner.hpp"
#include "bmp/obs/export.hpp"
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

bmp::runtime::ScenarioScript degradation_script(int peers, double horizon,
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

struct LoopResult {
  double worst_ratio = 0.0;  ///< worst node / post-brownout optimum
  double p5_ratio = 0.0;
  double seconds = 0.0;
  std::uint64_t repairs = 0;
  std::uint64_t replans = 0;
  std::uint64_t demotions = 0;
  std::uint64_t restores = 0;
  std::uint64_t samples = 0;
  double first_action = -1.0;  ///< scenario time of the first adaptation
  std::uint64_t events = 0;    ///< events the loop processed
  std::string metrics_json;    ///< final snapshot (timing.* excluded)
  std::string prometheus;      ///< final snapshot, Prometheus exposition
};

LoopResult run_loop(const bmp::runtime::ScenarioScript& script, bool adaptive,
                    double optimum, double probe_at, double horizon,
                    bmp::obs::TraceSink* trace = nullptr,
                    bmp::obs::Profiler* profiler = nullptr) {
  bmp::runtime::RuntimeConfig config;
  config.collect_timing = false;
  config.broker_headroom = 0.05;
  config.dataplane.execute = true;
  config.dataplane.execution.chunk_size = optimum / 40.0;
  config.dataplane.execution.receiver_window = 16;
  config.control.enabled = adaptive;
  config.trace = trace;
  config.profiler = profiler;

  const auto start = std::chrono::steady_clock::now();
  bmp::runtime::Runtime rt(config, script.source_bandwidth,
                           script.initial_peers);
  std::size_t next = 0;
  const auto run_until = [&](double t) {
    while (next < script.events.size() && script.events[next].time <= t) {
      rt.step(script.events[next++]);
      // Perf-gate self-test hook: a no-op unless CI injects a deliberate
      // per-event slowdown to prove bench_diff catches wall regressions.
      bmp::benchutil::selftest_sleep();
    }
    bmp::runtime::Event marker;
    marker.type = bmp::runtime::EventType::kNodeJoin;  // clock only
    marker.time = t;
    rt.step(marker);
  };
  const auto snapshot = [&] {
    const bmp::dataplane::Execution* exec = rt.execution(0);
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
  rt.drain(horizon);

  LoopResult result;
  result.seconds = seconds_since(start);
  std::vector<double> ratios;
  for (std::size_t k = 0; k < before.size(); ++k) {
    ratios.push_back((after[k] - before[k]) *
                     config.dataplane.execution.chunk_size /
                     ((horizon - probe_at) * optimum));
  }
  std::sort(ratios.begin(), ratios.end());
  result.worst_ratio = ratios.front();
  result.p5_ratio = ratios[ratios.size() / 20];
  result.repairs = rt.metrics().counter("control.repairs");
  result.replans = rt.metrics().counter("control.replans");
  result.demotions = rt.metrics().counter("control.demotions");
  result.restores = rt.metrics().counter("control.restores");
  result.samples = rt.metrics().counter("control.samples");
  if (!rt.control_log().empty()) {
    result.first_action = rt.control_log().front().time;
  }
  result.events = rt.metrics().counter("events.total");
  const bmp::obs::RollupSnapshot snap = rt.metrics().snapshot();
  result.metrics_json = bmp::obs::to_json(snap, /*include_timing=*/false);
  result.prometheus = bmp::obs::to_prometheus(snap);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bmp::benchutil::CommonCli cli(argc, argv);
  const bool quick = cli.quick;
  const int peers = quick ? 150 : 500;
  const double horizon = quick ? 14.0 : 24.0;
  const double probe_at = quick ? 10.0 : 16.0;

  bmp::util::print_banner(std::cout,
                          "Adaptive control plane — brownout recovery");
  std::cout << peers << "-node stream, 10% of peers browned out 4x at t = 3"
            << (quick ? "  [quick]\n\n" : "\n\n");

  const bmp::runtime::ScenarioScript script =
      degradation_script(peers, horizon, 2026);

  // The reference: the optimum of the platform as the brownout left it.
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
    const double eff = peer.bandwidth * 0.5 * (browned[k + 1] ? 0.25 : 1.0);
    (peer.guarded ? guarded_bw : open_bw).push_back(eff);
  }
  const bmp::Instance effective(script.source_bandwidth * 0.5,
                                std::move(open_bw), std::move(guarded_bw));
  const double optimum =
      bmp::engine::Planner::plan_uncached(effective,
                                          bmp::engine::Algorithm::kAcyclic, 0)
          .throughput;

  bmp::obs::TraceSink trace;
  const LoopResult adaptive =
      run_loop(script, true, optimum, probe_at, horizon,
               cli.trace.empty() ? nullptr : &trace, cli.profiler());
  const LoopResult frozen = run_loop(script, false, optimum, probe_at, horizon);

  bmp::util::Table table({"runtime", "worst/optimum", "p5/optimum",
                          "repairs", "replans", "demote/restore", "wall s"});
  table.add_row({"adaptive", bmp::util::Table::num(adaptive.worst_ratio, 4),
                 bmp::util::Table::num(adaptive.p5_ratio, 4),
                 bmp::util::Table::num(adaptive.repairs),
                 bmp::util::Table::num(adaptive.replans),
                 bmp::util::Table::num(adaptive.demotions) + "/" +
                     bmp::util::Table::num(adaptive.restores),
                 bmp::util::Table::num(adaptive.seconds, 2)});
  table.add_row({"frozen", bmp::util::Table::num(frozen.worst_ratio, 4),
                 bmp::util::Table::num(frozen.p5_ratio, 4), "0", "0", "0/0",
                 bmp::util::Table::num(frozen.seconds, 2)});
  table.print(std::cout);
  table.maybe_write_csv("control");

  bool ok = true;
  const double bar = quick ? 0.75 : 0.85;
  ok = ok && adaptive.worst_ratio >= bar;
  std::cout << (adaptive.worst_ratio >= bar ? "\n[OK] " : "\n[WARN] ")
            << "adaptive worst node recovered to "
            << 100.0 * adaptive.worst_ratio
            << "% of the post-brownout optimum (bar: " << 100.0 * bar
            << "%)\n";
  ok = ok && frozen.worst_ratio < bar;
  std::cout << (frozen.worst_ratio < bar ? "[OK] " : "[WARN] ")
            << "frozen baseline stayed at " << 100.0 * frozen.worst_ratio
            << "% — the loop, not luck, closed the gap\n";
  ok = ok && adaptive.repairs + adaptive.replans > 0;
  std::cout << "detection-to-action: first adaptation at t = "
            << adaptive.first_action << " (brownout at t = 3)\n";

  bmp::benchutil::JsonReport json;
  bmp::benchutil::add_header(json, "control");
  json.add("peers", peers);
  json.add("post_brownout_optimum", optimum);
  json.add("recovered_worst_ratio", adaptive.worst_ratio);
  json.add("recovered_p5_ratio", adaptive.p5_ratio);
  json.add("frozen_worst_ratio", frozen.worst_ratio);
  json.add("control_samples", adaptive.samples);
  json.add("control_repairs", adaptive.repairs);
  json.add("control_replans", adaptive.replans);
  json.add("control_demotions", adaptive.demotions);
  json.add("control_restores", adaptive.restores);
  json.add("first_action_time", adaptive.first_action);
  json.add("adaptive_wall_seconds", adaptive.seconds);
  json.add("events_per_s", adaptive.seconds > 0.0
                               ? static_cast<double>(adaptive.events) /
                                     adaptive.seconds
                               : 0.0);
  json.add_string("status", ok ? "ok" : "warn");
  bmp::benchutil::add_profile(json, cli.prof);
  json.add_raw("metrics", adaptive.metrics_json);
  if (!cli.json.empty()) {
    if (json.write(cli.json)) {
      std::cout << "json written to " << cli.json << "\n";
    } else {
      std::cout << "[WARN] could not write " << cli.json << "\n";
      ok = false;
    }
  }
  if (!cli.trace.empty()) {
    ok = trace.write(cli.trace) && ok;
    std::cout << "trace written to " << cli.trace << " (" << trace.spans()
              << " spans)\n";
  }
  if (!cli.metrics.empty()) {
    std::ofstream out(cli.metrics);
    out << adaptive.prometheus;
    ok = static_cast<bool>(out) && ok;
  }
  ok = cli.write_profile() && ok;
  return ok ? 0 : 1;
}
