// Verification fast-path bench — the acceptance numbers for the tiered
// verifier (flow/verify.hpp):
//   * tier 1: scheme_throughput on a large acyclic overlay (the word
//     schedule's output) vs the Dinic-per-sink oracle — must be >= 10x;
//   * tier 2: one Hao–Orlin rooted min cut on a cyclic overlay vs the
//     same oracle;
//   * node-caps probe: minimal_uniform_download_cap's 50-probe bisection
//     through the reusable split graph.
// `--quick` shrinks sizes for CI smoke; `--json <path>` writes the numbers
// as one flat JSON object for the perf-trajectory artifact.
#include <chrono>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bmp/core/acyclic_search.hpp"
#include "bmp/core/bounds.hpp"
#include "bmp/core/cyclic_open.hpp"
#include "bmp/flow/maxflow.hpp"
#include "bmp/flow/node_caps.hpp"
#include "bmp/flow/verify.hpp"
#include "bmp/util/rng.hpp"
#include "bmp/util/table.hpp"
#include "bench_util.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

bmp::Instance random_instance(bmp::util::Xoshiro256& rng, int opens,
                              int guardeds) {
  std::vector<double> open(static_cast<std::size_t>(opens));
  std::vector<double> guarded(static_cast<std::size_t>(guardeds));
  for (auto& b : open) b = rng.uniform(1.0, 10.0);
  for (auto& b : guarded) b = rng.uniform(1.0, 10.0);
  return bmp::Instance(rng.uniform(5.0, 10.0), std::move(open),
                       std::move(guarded));
}

/// Wall time of `reps` runs of `fn` (called once extra to warm up).
template <typename Fn>
double time_reps(int reps, Fn&& fn) {
  fn();
  const auto start = Clock::now();
  for (int r = 0; r < reps; ++r) fn();
  return seconds_since(start) / reps;
}

}  // namespace

int main(int argc, char** argv) {
  bmp::benchutil::CommonCli cli(argc, argv);
  const bool quick = cli.quick;
  const std::string& json_path = cli.json;
  const int acyclic_peers = quick ? 500 : 2000;
  const int cyclic_peers = quick ? 150 : 500;
  bmp::util::Xoshiro256 rng(20100419);

  bmp::util::print_banner(std::cout, "Throughput verification — tiered fast path");
  std::cout << acyclic_peers << "-node acyclic / " << cyclic_peers
            << "-node cyclic overlays" << (quick ? "  [quick]\n\n" : "\n\n");

  bmp::benchutil::JsonReport json;
  bmp::benchutil::add_header(json, "verify");
  json.add("acyclic_peers", acyclic_peers);
  json.add("cyclic_peers", cyclic_peers);
  bmp::util::Table table({"case", "oracle ms", "fast ms", "speedup", "value"});
  bool ok = true;

  // ------------------------------------------------- tier 1: acyclic sweep
  const bmp::Instance instance =
      random_instance(rng, acyclic_peers * 7 / 10, acyclic_peers * 3 / 10);
  const bmp::AcyclicSolution solution = bmp::solve_acyclic(instance);

  const double oracle_s = time_reps(1, [&] {
    (void)bmp::flow::scheme_throughput_oracle(solution.scheme);
  });
  bmp::obs::Hooks hooks;
  hooks.profiler = cli.profiler();
  bmp::flow::Verifier verifier({}, hooks);
  const double sweep_s = time_reps(quick ? 50 : 100, [&] {
    (void)verifier.verify(solution.scheme);
  });
  const bmp::flow::VerifyResult acyclic_result = verifier.verify(solution.scheme);
  const double oracle_value = bmp::flow::scheme_throughput_oracle(solution.scheme);
  const double acyclic_speedup = oracle_s / sweep_s;
  table.add_row({"acyclic tier-1 sweep", bmp::util::Table::num(oracle_s * 1e3, 2),
                 bmp::util::Table::num(sweep_s * 1e3, 4),
                 bmp::util::Table::num(acyclic_speedup, 0),
                 bmp::util::Table::num(acyclic_result.throughput, 4)});
  json.add("acyclic_oracle_ms", oracle_s * 1e3);
  json.add("acyclic_sweep_ms", sweep_s * 1e3);
  json.add("acyclic_speedup", acyclic_speedup);

  const bool acyclic_exact =
      std::abs(acyclic_result.throughput - oracle_value) <=
      1e-9 * std::max(1.0, oracle_value);
  const bool acyclic_fast = acyclic_speedup >= 10.0;
  ok = ok && acyclic_exact && acyclic_fast;

  // ------------------------------------------- tier 2: rooted min cut
  std::vector<double> open_bw(static_cast<std::size_t>(cyclic_peers));
  for (auto& b : open_bw) b = rng.uniform(1.0, 10.0);
  const bmp::Instance open_only(rng.uniform(5.0, 10.0), std::move(open_bw), {});
  const double t_star = bmp::cyclic_open_optimal(open_only);
  const bmp::BroadcastScheme cyclic =
      bmp::build_cyclic_open(open_only, t_star);

  const double cyclic_oracle_s = time_reps(1, [&] {
    (void)bmp::flow::scheme_throughput_oracle(cyclic);
  });
  bmp::flow::Verifier cyclic_verifier({}, hooks);
  const double cut_s = time_reps(quick ? 5 : 10, [&] {
    (void)cyclic_verifier.verify(cyclic);
  });
  const bmp::flow::VerifyResult cyclic_result = cyclic_verifier.verify(cyclic);
  const double cyclic_speedup = cyclic_oracle_s / cut_s;
  table.add_row({cyclic.is_acyclic() ? "cyclic (degenerated: acyclic)"
                                     : "cyclic tier-2 rooted min cut",
                 bmp::util::Table::num(cyclic_oracle_s * 1e3, 2),
                 bmp::util::Table::num(cut_s * 1e3, 2),
                 bmp::util::Table::num(cyclic_speedup, 1),
                 bmp::util::Table::num(cyclic_result.throughput, 4)});
  json.add("cyclic_oracle_ms", cyclic_oracle_s * 1e3);
  json.add("cyclic_tier2_ms", cut_s * 1e3);
  json.add("cyclic_speedup", cyclic_speedup);

  const double cyclic_oracle_value = bmp::flow::scheme_throughput_oracle(cyclic);
  const bool cyclic_exact =
      std::abs(cyclic_result.throughput - cyclic_oracle_value) <=
      1e-9 * std::max(1.0, cyclic_oracle_value);
  ok = ok && cyclic_exact;

  // --------------------------------------- node-caps probe (50-probe bisect)
  const double caps_s = time_reps(quick ? 1 : 2, [&] {
    (void)bmp::flow::minimal_uniform_download_cap(solution.scheme,
                                                  solution.throughput);
  });
  table.add_row({"min uniform download cap", "-",
                 bmp::util::Table::num(caps_s * 1e3, 2), "-",
                 bmp::util::Table::num(
                     bmp::flow::minimal_uniform_download_cap(
                         solution.scheme, solution.throughput),
                     4)});
  json.add("download_cap_bisect_ms", caps_s * 1e3);

  table.print(std::cout);
  table.maybe_write_csv("verify");

  std::cout << (acyclic_exact ? "[OK] " : "[WARN] ")
            << "tier-1 sweep matches the Dinic oracle within 1e-9\n";
  std::cout << (acyclic_fast ? "[OK] " : "[WARN] ") << "tier-1 speedup "
            << bmp::util::Table::num(acyclic_speedup, 0) << "x (bar: 10x)\n";
  std::cout << (cyclic_exact ? "[OK] " : "[WARN] ")
            << "tier-2 rooted min cut matches the oracle within 1e-9\n";

  if (!json_path.empty()) {
    json.add_string("status", ok ? "ok" : "warn");
    bmp::benchutil::add_profile(json, cli.prof);
    if (json.write(json_path)) {
      std::cout << "json written to " << json_path << "\n";
    } else {
      std::cout << "[WARN] could not write " << json_path << "\n";
      ok = false;
    }
  }
  ok = cli.write_profile() && ok;
  return ok ? 0 : 1;
}
