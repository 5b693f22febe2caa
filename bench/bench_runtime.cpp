// Runtime bench — the numbers the multi-channel subsystem exists for:
//   * event-loop throughput (events/sec) on a scenario mixing channel
//     arrivals, flash crowds, diurnal churn, correlated failures and
//     renegotiations over a large heterogeneous population;
//   * churn absorption: after every population event each live channel
//     must achieve >= 0.85x its broker-granted design rate;
//   * the shared-capacity invariant: no node oversubscribed, ever;
//   * replay determinism: identical seed => identical metrics snapshot.
// `--quick` shrinks the scenario for CI smoke.
// Observability CLI (benchutil::CommonCli): --json / --trace / --profile /
// --metrics, all attributing the measured (first) run.
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>

#include "bmp/obs/export.hpp"
#include "bmp/obs/trace.hpp"
#include "bmp/runtime/runtime.hpp"
#include "bmp/runtime/scenario.hpp"
#include "bmp/util/table.hpp"
#include "bench_util.hpp"

namespace {

bmp::runtime::ScenarioScript make_script(int peers, double horizon,
                                         std::uint64_t seed) {
  using namespace bmp::runtime;
  Scenario scenario(horizon, seed);
  scenario.source(2000.0)
      .population({peers * 3 / 5, 0.7, bmp::gen::Dist::kUnif100})
      .population({peers * 2 / 5, 0.3, bmp::gen::Dist::kLogNormal1})
      .channel({0.0, -1.0, /*weight=*/2.0, /*fraction=*/0.4})
      .channel({0.0, -1.0, 1.0, 0.2})
      .channel({0.2, -1.0, 1.0, 0.15})
      .poisson_channels({0.8, horizon / 4.0, 1.0, 0.1})
      .flash_crowd({horizon * 0.3, peers / 5,
                    {0, 0.8, bmp::gen::Dist::kUnif100}, 0.7, horizon * 0.2})
      .diurnal_churn({horizon / 2.0, 0.8, 8.0, 0.45,
                      {0, 0.5, bmp::gen::Dist::kUnif100}})
      .correlated_failure({horizon * 0.75, 0.10})
      .renegotiate_every(horizon / 5.0, 0.95);
  return scenario.build();
}

double run_once(const bmp::runtime::ScenarioScript& script,
                bmp::runtime::Runtime& runtime) {
  const auto start = std::chrono::steady_clock::now();
  runtime.run(script.events);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  bmp::benchutil::CommonCli cli(argc, argv);
  const bool quick = cli.quick;
  const std::string& json_path = cli.json;
  const std::string& trace_path = cli.trace;
  const int peers = quick ? 120 : 500;
  const double horizon = quick ? 6.0 : 20.0;
  const std::uint64_t seed = 7;

  bmp::util::print_banner(std::cout, "Multi-channel runtime — event loop");
  const bmp::runtime::ScenarioScript script = make_script(peers, horizon, seed);
  std::cout << script.initial_peers.size() << " initial peers, "
            << script.events.size() << " events, horizon " << horizon
            << (quick ? "  [quick]\n\n" : "\n\n");

  bmp::runtime::RuntimeConfig config;
  config.broker_headroom = 0.05;
  bmp::obs::TraceSink trace;
  if (!trace_path.empty()) config.trace = &trace;
  config.profiler = cli.profiler();
  bmp::runtime::Runtime runtime(config, script.source_bandwidth,
                                script.initial_peers);
  const double elapsed = run_once(script, runtime);
  if (!trace_path.empty()) {
    std::cout << (trace.write(trace_path) ? "trace written to "
                                          : "[WARN] could not write ")
              << trace_path << " (" << trace.events() << " events, "
              << trace.spans() << " spans)\n";
  }

  const auto& metrics = runtime.metrics();
  bmp::util::Table t({"metric", "value"});
  t.add_row({"events/sec",
             bmp::util::Table::num(
                 static_cast<double>(script.events.size()) / elapsed, 0)});
  t.add_row({"channels admitted",
             bmp::util::Table::num(metrics.counter("broker.admitted"))});
  t.add_row({"admissions rejected",
             bmp::util::Table::num(metrics.counter("broker.rejected"))});
  t.add_row({"repairs incremental",
             bmp::util::Table::num(metrics.counter("repairs.incremental"))});
  t.add_row({"repairs full",
             bmp::util::Table::num(metrics.counter("repairs.full"))});
  t.add_row({"join replans",
             bmp::util::Table::num(metrics.counter("replans.join"))});
  t.add_row({"renegotiations",
             bmp::util::Table::num(metrics.counter("broker.renegotiated"))});
  if (const auto* latency = metrics.sketch("timing.event_loop_us")) {
    t.add_row({"event latency p50 us",
               bmp::util::Table::num(latency->quantile(0.5), 1)});
    t.add_row({"event latency p99 us",
               bmp::util::Table::num(latency->quantile(0.99), 1)});
  }
  if (const auto* vlat = metrics.sketch("timing.verify.us")) {
    t.add_row({"verify p50 us", bmp::util::Table::num(vlat->quantile(0.5), 1)});
  }
  t.add_row({"verify tier-1 sweeps",
             bmp::util::Table::num(metrics.counter("verify.tier_sweep"))});
  t.add_row({"verify tier-2 maxflow",
             bmp::util::Table::num(metrics.counter("verify.tier_maxflow"))});
  t.print(std::cout);
  t.maybe_write_csv("runtime");

  bool ok = true;

  // Shared-capacity invariant.
  const auto violations = runtime.validate();
  for (const auto& violation : violations) {
    std::cout << "[WARN] " << violation << "\n";
  }
  ok = ok && violations.empty();
  std::cout << (violations.empty() ? "[OK] " : "[WARN] ")
            << "summed per-channel allocations within every node budget\n";

  // Churn absorption bar.
  int below_bar = 0;
  for (const auto& report : runtime.churn_log()) {
    if (report.design_rate > 0.0 &&
        report.achieved_rate < 0.85 * report.design_rate - 1e-9) {
      ++below_bar;
    }
  }
  ok = ok && below_bar == 0;
  std::cout << (below_bar == 0 ? "[OK] " : "[WARN] ")
            << runtime.churn_log().size() << " churn reports, " << below_bar
            << " below 0.85x design rate\n";

  // Replay determinism: same seed, fresh runtime, identical snapshot.
  bmp::runtime::RuntimeConfig replay_config = config;
  replay_config.collect_timing = false;
  replay_config.profiler = nullptr;  // attribution covers the measured run
  bmp::runtime::Runtime replay(replay_config, script.source_bandwidth,
                               script.initial_peers);
  replay.run(script.events);
  const bool deterministic =
      replay.metrics().snapshot().to_string(false) ==
      metrics.snapshot().to_string(/*include_timing=*/false);
  ok = ok && deterministic;
  std::cout << (deterministic ? "[OK] " : "[WARN] ")
            << "replay reproduced the metrics snapshot byte-for-byte\n";

  if (!json_path.empty()) {
    bmp::benchutil::JsonReport json;
    bmp::benchutil::add_header(json, "runtime");
    json.add("peers", peers);
    json.add("events", static_cast<std::uint64_t>(script.events.size()));
    json.add("elapsed_s", elapsed);
    json.add("events_per_sec",
             static_cast<double>(script.events.size()) / elapsed);
    json.add("repairs_incremental", metrics.counter("repairs.incremental"));
    json.add("repairs_full", metrics.counter("repairs.full"));
    json.add("verify_calls", metrics.counter("verify.calls"));
    json.add("verify_tier_sweep", metrics.counter("verify.tier_sweep"));
    json.add("verify_tier_maxflow", metrics.counter("verify.tier_maxflow"));
    if (const auto* latency = metrics.sketch("timing.event_loop_us")) {
      json.add("event_latency_p50_us", latency->quantile(0.5));
      json.add("event_latency_p99_us", latency->quantile(0.99));
    }
    if (const auto* vlat = metrics.sketch("timing.verify.us")) {
      json.add("verify_p50_us", vlat->quantile(0.5));
      json.add("verify_p99_us", vlat->quantile(0.99));
    }
    json.add_string("status", ok ? "ok" : "warn");
    bmp::benchutil::add_profile(json, cli.prof);
    // The final metrics snapshot rides along whole, so a BENCH artifact is
    // self-describing without a re-run (timing.* excluded: not replayable).
    json.add_raw("metrics",
                 bmp::obs::to_json(metrics.snapshot(), /*include_timing=*/false));
    if (json.write(json_path)) {
      std::cout << "json written to " << json_path << "\n";
    } else {
      std::cout << "[WARN] could not write " << json_path << "\n";
      ok = false;
    }
  }
  if (!cli.metrics.empty()) {
    std::ofstream out(cli.metrics);
    out << bmp::obs::to_prometheus(metrics.snapshot());
    ok = static_cast<bool>(out) && ok;
  }
  ok = cli.write_profile() && ok;
  return ok ? 0 : 1;
}
