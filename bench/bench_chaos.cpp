// Chaos bench — the fault-tolerance headline numbers: on a live stream
// hit by a seeded storm (abrupt crashes, a partition that heals, payload
// corruption, a telemetry blackout, a planner outage), how much of the
// *post-storm survivor optimum* does the hardened runtime recover for its
// worst survivor, and how long after the heal does it take to get there?
//   * recovered-throughput ratio: worst survivor's clean-delivery rate
//     over the converged post-heal window / optimum of the surviving
//     platform (corrupted-but-accepted chunks do not count as delivered);
//   * time-to-recover: scenario time from the first fault until the worst
//     survivor's window rate first holds 70% of that optimum;
//   * the tolerance ledger (crashes detected, corruption caught, dark
//     windows skipped) and the wall-clock cost of the hardened loop.
// `--quick` shrinks the platform for CI smoke.
// Observability CLI (benchutil::CommonCli): `--json` machine-readable
// report with the final metrics snapshot embedded, `--trace` timeline,
// `--profile` work attribution, `--metrics` Prometheus snapshot — all on
// the hardened run (the headline the perf gate tracks).
#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bmp/engine/planner.hpp"
#include "bmp/fault/fault.hpp"
#include "bmp/fault/injector.hpp"
#include "bmp/obs/export.hpp"
#include "bmp/obs/slo.hpp"
#include "bmp/obs/trace.hpp"
#include "bmp/runtime/runtime.hpp"
#include "bmp/runtime/scenario.hpp"
#include "bmp/util/table.hpp"
#include "bench_util.hpp"

namespace {

constexpr double kFraction = 0.5;   // channel's capacity share
constexpr double kStormStart = 3.0; // first fault lands here
constexpr double kHealTime = 7.5;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

bmp::runtime::ScenarioScript storm_script(int peers, double horizon,
                                          std::uint64_t seed) {
  bmp::runtime::Scenario scenario(horizon, seed);
  scenario.source(4000.0)
      .population({peers * 3 / 5, 0.7, bmp::gen::Dist::kUnif100})
      .population({peers * 2 / 5, 0.3, bmp::gen::Dist::kLogNormal1})
      .channel({0.0, -1.0, 1.0, kFraction});
  bmp::runtime::ScenarioScript script = scenario.build();

  // The storm scales with the platform: ~2% of the peers crash, ~4% land
  // behind a partition, two relays corrupt their egress, a few nodes go
  // telemetry-dark, and the planner is down through the worst of it.
  bmp::fault::FaultPlan plan;
  const int crashes = std::max(2, peers / 50);
  for (int k = 0; k < crashes; ++k) {
    plan.crashes.push_back(
        {kStormStart + 0.5 * k, 3 + k * std::max(1, peers / (crashes + 1))});
  }
  bmp::fault::PartitionSpec partition;
  partition.time = kStormStart + 1.0;
  partition.heal_time = kHealTime;
  const int island = std::max(4, peers / 25);
  for (int k = 0; k < island; ++k) {
    partition.group_b.push_back(peers / 2 + k);
  }
  plan.partitions.push_back(partition);
  plan.corruptions.push_back({kStormStart, -1.0, /*node=*/7, /*rate=*/0.4});
  plan.corruptions.push_back(
      {kStormStart, -1.0, /*node=*/peers / 3, /*rate=*/0.4});
  bmp::fault::BlackoutSpec blackout;
  blackout.time = kStormStart + 2.0;
  blackout.end_time = kHealTime + 0.5;
  for (int k = 0; k < 3; ++k) blackout.nodes.push_back(peers / 4 + k);
  plan.blackouts.push_back(blackout);
  plan.planner_outages.push_back({kStormStart + 1.0, kStormStart + 3.0});
  bmp::fault::Injector::inject(script, plan);
  return script;
}

struct ChaosResult {
  double worst_ratio = 0.0;    ///< worst survivor clean rate / optimum
  double recover_time = -1.0;  ///< first fault -> floor held (scenario s)
  double seconds = 0.0;        ///< wall clock of the whole run
  int stalled = 0;
  std::uint64_t crashes_detected = 0;
  std::uint64_t corrupt_dropped = 0;
  std::uint64_t corrupt_accepted = 0;
  std::uint64_t heal_pardons = 0;
  std::uint64_t stale_windows = 0;
  std::uint64_t planner_faults = 0;
  std::uint64_t events = 0;
  std::string metrics_json;
  std::string prometheus;
  std::vector<std::string> violations;
  // ---- straggler spread (scenario-time milestone latencies) ----
  double milestone_p50 = 0.0;   ///< grid time to reach the milestone, median
  double milestone_p99 = 0.0;
  double straggler_ratio = 1.0; ///< worst / median milestone time
  // ---- SLO monitor (hardened run only) ----
  std::uint64_t slo_pages = 0;
  std::uint64_t slo_warns = 0;
  bool slo_paged_in_storm = false;  ///< a page alert landed during the storm
  bool slo_ok_at_end = false;       ///< state returned to ok after the heal
  std::string slo_state;
  std::string slo_alerts_json;
};

ChaosResult run_storm(const bmp::runtime::ScenarioScript& script,
                      bool hardened, double optimum, double probe_at,
                      double horizon, bmp::obs::TraceSink* trace = nullptr,
                      bmp::obs::Profiler* profiler = nullptr) {
  bmp::runtime::RuntimeConfig config;
  config.collect_timing = false;
  config.broker_headroom = 0.05;
  config.dataplane.execute = true;
  config.dataplane.execution.chunk_size = optimum / 40.0;
  config.dataplane.execution.receiver_window = 16;
  config.control.enabled = hardened;
  config.control.slo_enabled = hardened;  // page during the storm, ok after
  if (!hardened) {
    config.dataplane.execution.verify_payloads = false;
    config.fault.detect_crashes = false;
  }
  config.trace = trace;
  config.profiler = profiler;

  const auto start = std::chrono::steady_clock::now();
  bmp::runtime::Runtime rt(config, script.source_bandwidth,
                           script.initial_peers);
  std::size_t next = 0;
  const auto run_until = [&](double t) {
    while (next < script.events.size() && script.events[next].time <= t) {
      rt.step(script.events[next++]);
      bmp::benchutil::selftest_sleep();  // perf-gate self-test hook (no-op)
    }
    bmp::runtime::Event marker;
    marker.type = bmp::runtime::EventType::kNodeJoin;  // clock only
    marker.time = t;
    rt.step(marker);
  };
  // Clean deliveries only: a corrupted chunk a defenseless receiver
  // swallowed is not a delivery, whatever the raw counter says.
  const auto snapshot = [&] {
    const bmp::dataplane::Execution* exec = rt.execution(0);
    const int emitted = exec->delivered(exec->origin());
    std::vector<int> clean(static_cast<std::size_t>(exec->num_nodes()), -1);
    for (int dp = 1; dp < exec->num_nodes(); ++dp) {
      if (!exec->node_alive(dp)) continue;
      int damaged = 0;
      for (int chunk = 0; chunk < emitted; ++chunk) {
        if (exec->chunk_corrupted(dp, chunk)) ++damaged;
      }
      clean[static_cast<std::size_t>(dp)] = exec->delivered(dp) - damaged;
    }
    return clean;
  };
  const auto worst_window_rate = [&](const std::vector<int>& before,
                                     const std::vector<int>& after,
                                     double window) {
    double worst = 1e300;
    for (std::size_t k = 1; k < after.size(); ++k) {
      if (after[k] < 0 || before[k] < 0) continue;
      worst = std::min(worst, (after[k] - before[k]) *
                                  config.dataplane.execution.chunk_size /
                                  window);
    }
    return worst;
  };

  // Sample the stream every half second so time-to-recover lands on a
  // half-second grid: first window whose worst survivor holds 70% of the
  // post-storm optimum, measured from the first fault.
  ChaosResult result;
  run_until(0.0);  // channel opens at t = 0: execution exists from here on
  std::vector<int> window_prev = snapshot();
  std::vector<int> baseline;
  std::vector<double> grid_times;
  std::vector<std::vector<int>> history;  // grid snapshots, straggler spread
  for (double t = 0.5; t <= horizon + 1e-9; t += 0.5) {
    run_until(t);
    std::vector<int> now = snapshot();
    if (result.recover_time < 0.0 && t > kHealTime &&
        worst_window_rate(window_prev, now, 0.5) >= 0.7 * optimum) {
      result.recover_time = t - kStormStart;
    }
    if (std::abs(t - probe_at) < 1e-9) baseline = now;
    grid_times.push_back(t);
    history.push_back(now);
    window_prev = std::move(now);
  }
  const std::vector<int>& after = window_prev;  // final snapshot
  // Straggler spread: scenario time for each survivor to reach half the
  // worst survivor's final clean count (a milestone every survivor hits),
  // read off the half-second grid. Worst/median is the tail the SLO pages
  // on and the lineage analyzer attributes.
  {
    int min_final = -1;
    for (std::size_t k = 1; k < after.size(); ++k) {
      if (after[k] < 0) continue;
      if (min_final < 0 || after[k] < min_final) min_final = after[k];
    }
    const int milestone = std::max(1, min_final / 2);
    std::vector<double> times;
    for (std::size_t k = 1; k < after.size(); ++k) {
      if (after[k] < milestone) continue;
      for (std::size_t i = 0; i < history.size(); ++i) {
        if (history[i][k] >= milestone) {
          times.push_back(grid_times[i]);
          break;
        }
      }
    }
    std::sort(times.begin(), times.end());
    if (!times.empty()) {
      const auto at = [&](double q) {
        return times[static_cast<std::size_t>(
            q * static_cast<double>(times.size() - 1) + 0.5)];
      };
      result.milestone_p50 = at(0.50);
      result.milestone_p99 = at(0.99);
      result.straggler_ratio =
          result.milestone_p50 > 0.0 ? times.back() / result.milestone_p50
                                     : 1.0;
    }
  }
  {
    // Execution stats and the leak audit must be read before drain()
    // closes the channel and tears the stream down.
    const bmp::dataplane::Execution* exec = rt.execution(0);
    result.corrupt_dropped = exec->corruptions();
    result.corrupt_accepted = exec->corrupted_accepted();
    result.violations = rt.validate();
  }
  if (const bmp::obs::SloMonitor* slo = rt.slo_monitor(0)) {
    result.slo_pages = slo->pages();
    result.slo_warns = slo->warns();
    result.slo_state = bmp::obs::to_string(slo->state());
    result.slo_ok_at_end = slo->state() == bmp::obs::SloState::kOk;
    for (const bmp::obs::SloAlert& alert : slo->alerts()) {
      if (alert.to == bmp::obs::SloState::kPage &&
          alert.time >= kStormStart && alert.time <= kHealTime + 2.0) {
        result.slo_paged_in_storm = true;
      }
    }
    result.slo_alerts_json = slo->alerts_json();
  }
  rt.drain(horizon);

  result.seconds = seconds_since(start);
  result.worst_ratio = 1e300;
  for (std::size_t k = 1; k < after.size(); ++k) {
    if (after[k] < 0 || baseline[k] < 0) continue;
    if (after[k] <= baseline[k]) ++result.stalled;
    result.worst_ratio = std::min(
        result.worst_ratio,
        (after[k] - baseline[k]) * config.dataplane.execution.chunk_size /
            ((horizon - probe_at) * optimum));
  }
  result.crashes_detected = rt.metrics().counter("fault.crashes_detected");
  result.heal_pardons = rt.metrics().counter("fault.heal_pardons");
  result.stale_windows = rt.metrics().counter("control.stale_nodes");
  result.planner_faults = rt.metrics().counter("fault.planner_faults") +
                          rt.metrics().counter("fault.opens_deferred");
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

  bmp::util::print_banner(std::cout, "Fault tolerance — chaos recovery");

  const bmp::runtime::ScenarioScript script =
      storm_script(peers, horizon, 2027);

  // The reference: the optimum of the platform as the storm leaves it —
  // the surviving population at nominal capacity, channel share applied.
  std::vector<char> crashed(script.initial_peers.size() + 1, 0);
  int crash_count = 0;
  for (const bmp::runtime::Event& event : script.events) {
    if (event.type != bmp::runtime::EventType::kFault) continue;
    for (const bmp::runtime::FaultAction& fault : event.faults) {
      if (fault.kind == bmp::runtime::FaultAction::Kind::kCrash) {
        crashed[static_cast<std::size_t>(fault.node)] = 1;
        ++crash_count;
      }
    }
  }
  std::vector<double> open_bw;
  std::vector<double> guarded_bw;
  for (std::size_t k = 0; k < script.initial_peers.size(); ++k) {
    if (crashed[k + 1]) continue;
    const bmp::runtime::NodeSpec& peer = script.initial_peers[k];
    (peer.guarded ? guarded_bw : open_bw)
        .push_back(peer.bandwidth * kFraction);
  }
  const bmp::Instance survivors(script.source_bandwidth * kFraction,
                                std::move(open_bw), std::move(guarded_bw));
  const double optimum =
      bmp::engine::Planner::plan_uncached(survivors,
                                          bmp::engine::Algorithm::kAcyclic, 0)
          .throughput;

  std::cout << peers << "-node stream; " << crash_count
            << " crashes, a partition healing at t = " << kHealTime
            << ", 2 corrupting relays, a telemetry blackout, a planner "
            << "outage" << (quick ? "  [quick]\n" : "\n")
            << "post-storm survivor optimum: " << optimum << "\n\n";

  bmp::obs::TraceSink trace;
  const ChaosResult hardened =
      run_storm(script, true, optimum, probe_at, horizon,
                cli.trace.empty() ? nullptr : &trace, cli.profiler());
  const ChaosResult frozen =
      run_storm(script, false, optimum, probe_at, horizon);

  bmp::util::Table table({"runtime", "worst/optimum", "recover s", "stalled",
                          "corrupt drop/accept", "crashes det", "wall s"});
  const auto row = [&](const char* name, const ChaosResult& r) {
    table.add_row({name, bmp::util::Table::num(r.worst_ratio, 4),
                   r.recover_time < 0.0 ? std::string("never")
                                        : bmp::util::Table::num(r.recover_time, 1),
                   bmp::util::Table::num(r.stalled),
                   bmp::util::Table::num(r.corrupt_dropped) + "/" +
                       bmp::util::Table::num(r.corrupt_accepted),
                   bmp::util::Table::num(r.crashes_detected),
                   bmp::util::Table::num(r.seconds, 2)});
  };
  row("hardened", hardened);
  row("defenseless", frozen);
  table.print(std::cout);
  table.maybe_write_csv("chaos");

  bool ok = true;
  const double bar = quick ? 0.70 : 0.80;
  ok = ok && hardened.worst_ratio >= bar;
  std::cout << (hardened.worst_ratio >= bar ? "\n[OK] " : "\n[WARN] ")
            << "hardened worst survivor recovered to "
            << 100.0 * hardened.worst_ratio
            << "% of the post-storm optimum (bar: " << 100.0 * bar << "%)\n";
  ok = ok && hardened.violations.empty() && hardened.stalled == 0 &&
       hardened.corrupt_accepted == 0;
  std::cout << (hardened.violations.empty() && hardened.stalled == 0
                    ? "[OK] "
                    : "[WARN] ")
            << "no stalled survivors, no leaked grants, no corruption "
            << "accepted\n";
  ok = ok && frozen.worst_ratio < hardened.worst_ratio;
  std::cout << (frozen.worst_ratio < hardened.worst_ratio ? "[OK] "
                                                          : "[WARN] ")
            << "defenseless clean floor: " << 100.0 * frozen.worst_ratio
            << "% — the tolerance machinery, not luck, held the stream\n"
            << "time-to-recover: " << hardened.recover_time
            << " s after the first fault (heal at t = " << kHealTime << ")\n";
  // The SLO monitor must page while the storm rages and stand down once
  // the stream recovers — deterministically, every run.
  const bool slo_ok = hardened.slo_paged_in_storm && hardened.slo_ok_at_end;
  ok = ok && slo_ok;
  std::cout << (slo_ok ? "[OK] " : "[WARN] ") << "SLO monitor paged during "
            << "the storm and returned to " << hardened.slo_state
            << " after the heal (" << hardened.slo_pages << " pages, "
            << hardened.slo_warns << " warns)\n"
            << "straggler spread: milestone p50 " << hardened.milestone_p50
            << "s, p99 " << hardened.milestone_p99 << "s, worst/median "
            << hardened.straggler_ratio << "x\n";

  bmp::benchutil::JsonReport json;
  bmp::benchutil::add_header(json, "chaos");
  json.add("peers", peers);
  json.add("post_storm_optimum", optimum);
  json.add("recovered_worst_ratio", hardened.worst_ratio);
  json.add("frozen_worst_ratio", frozen.worst_ratio);
  json.add("time_to_recover_s", hardened.recover_time);
  json.add("stalled_survivors", hardened.stalled);
  json.add("crashes_detected", hardened.crashes_detected);
  json.add("corrupt_dropped", hardened.corrupt_dropped);
  json.add("corrupt_accepted", hardened.corrupt_accepted);
  json.add("frozen_corrupt_accepted", frozen.corrupt_accepted);
  json.add("heal_pardons", hardened.heal_pardons);
  json.add("stale_windows", hardened.stale_windows);
  json.add("planner_faults", hardened.planner_faults);
  json.add("latency.milestone_p50", hardened.milestone_p50);
  json.add("latency.milestone_p99", hardened.milestone_p99);
  json.add("latency.straggler_ratio", hardened.straggler_ratio);
  json.add("slo_pages", hardened.slo_pages);
  json.add("slo_warns", hardened.slo_warns);
  json.add_string("slo_final_state", hardened.slo_state);
  json.add_raw("slo_alerts", hardened.slo_alerts_json.empty()
                                 ? "null"
                                 : hardened.slo_alerts_json);
  json.add("hardened_wall_seconds", hardened.seconds);
  json.add("events_per_s",
           hardened.seconds > 0.0
               ? static_cast<double>(hardened.events) / hardened.seconds
               : 0.0);
  json.add_string("status", ok ? "ok" : "warn");
  bmp::benchutil::add_profile(json, cli.prof);
  json.add_raw("metrics", hardened.metrics_json);
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
    out << hardened.prometheus;
    ok = static_cast<bool>(out) && ok;
  }
  ok = cli.write_profile() && ok;
  return ok ? 0 : 1;
}
