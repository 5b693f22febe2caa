// Planning-engine bench: plans/sec on a heavy request stream, cold vs.
// warm cache and 1..N worker threads, plus churn-session recovery. The
// headline numbers the subsystem exists for:
//   * warm-cache batch planning must beat cold single-threaded planning by
//     >= 5x on a 1000-request stream of ~100-node platforms;
//   * churn sessions must recover >= 90% of the design rate by incremental
//     repair (no full re-plan) on small departures.
//   * single departures from 1,000-peer platforms with 46% guarded peers
//     must each be absorbed in under 1 s of wall time.
// Observability CLI (benchutil::CommonCli): --json report, --profile work
// attribution of the max-thread warm batch (counters are thread-count
// independent, so the profile is comparable across machines).
#include <algorithm>
#include <chrono>
#include <iostream>
#include <vector>

#include "bmp/core/bounds.hpp"
#include "bmp/engine/plan_cache.hpp"
#include "bmp/engine/planner.hpp"
#include "bmp/engine/session.hpp"
#include "bmp/gen/generator.hpp"
#include "bmp/util/rng.hpp"
#include "bmp/util/stats.hpp"
#include "bmp/util/table.hpp"
#include "bench_util.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  bmp::benchutil::CommonCli cli(argc, argv);
  using bmp::util::Table;
  const int requests = 1000;
  const int size = 100;
  const int distinct = 50;
  const int max_threads = 8;

  bmp::util::print_banner(std::cout,
                          "Planning engine — plans/sec, cold vs. warm cache");
  std::cout << requests << " requests over " << distinct
            << " distinct platforms, " << size << " peers each\n\n";

  // The request stream: `distinct` base platforms, revisited round-robin —
  // the shape of a deployment where the same overlays are re-requested as
  // viewers join.
  bmp::util::Xoshiro256 rng(97);
  std::vector<bmp::engine::PlanRequest> stream;
  stream.reserve(static_cast<std::size_t>(requests));
  {
    std::vector<bmp::Instance> bases;
    for (int k = 0; k < distinct; ++k) {
      bases.push_back(
          bmp::gen::random_instance({size, 0.5, bmp::gen::Dist::kUnif100}, rng));
    }
    for (int r = 0; r < requests; ++r) {
      stream.push_back(bmp::engine::PlanRequest{
          bases[static_cast<std::size_t>(r % distinct)],
          bmp::engine::Algorithm::kAcyclic, 0});
    }
  }

  // Baseline: cold, single-threaded, no cache — every request pays for a
  // full plan, the way the library worked before the engine existed.
  const auto cold_start = std::chrono::steady_clock::now();
  double checksum_cold = 0.0;
  for (const auto& request : stream) {
    checksum_cold += bmp::engine::Planner::plan_uncached(request).throughput;
  }
  const double cold_s = seconds_since(cold_start);
  std::cout << "cold 1-thread uncached: " << cold_s << " s  ("
            << static_cast<double>(requests) / cold_s << " plans/s)\n\n";

  Table t({"threads", "cold batch s", "warm batch s", "plans/s warm",
           "speedup vs cold-1t"});
  double best_warm = 0.0;
  double warm_plans_per_s = 0.0;
  for (int threads = 1; threads <= max_threads; threads *= 2) {
    bmp::engine::PlannerConfig config;
    config.threads = static_cast<std::size_t>(threads);
    // Attribute the widest configuration only, so the profile reflects one
    // run rather than summing the thread ladder.
    bmp::obs::Hooks hooks;
    if (threads * 2 > max_threads) hooks.profiler = cli.profiler();
    bmp::engine::Planner planner(config, hooks);

    const auto cold_batch_start = std::chrono::steady_clock::now();
    auto responses = planner.plan_batch(stream);
    const double cold_batch_s = seconds_since(cold_batch_start);

    const auto warm_start = std::chrono::steady_clock::now();
    responses = planner.plan_batch(stream);
    const double warm_s = seconds_since(warm_start);

    double checksum = 0.0;
    for (const auto& response : responses) checksum += response.throughput;
    if (checksum < 0.999 * checksum_cold || checksum > 1.001 * checksum_cold) {
      std::cout << "[WARN] cached batch diverged from uncached planning\n";
    }

    const double speedup = cold_s / warm_s;
    best_warm = std::max(best_warm, speedup);
    warm_plans_per_s =
        std::max(warm_plans_per_s, static_cast<double>(requests) / warm_s);
    t.add_row({Table::num(threads), Table::num(cold_batch_s, 3),
               Table::num(warm_s, 4),
               Table::num(static_cast<double>(requests) / warm_s, 0),
               Table::num(speedup, 1)});
  }
  t.print(std::cout);
  t.maybe_write_csv("engine");

  bool ok = best_warm >= 5.0;
  std::cout << (ok ? "[OK] " : "[WARN] ") << "warm-cache batch planning is "
            << best_warm << "x cold single-threaded planning (need >= 5)\n\n";

  // Churn sessions: small departures (2% of peers per wave) must be
  // absorbed by incremental repair at >= 90% of the design rate.
  bmp::util::print_banner(std::cout, "Churn sessions — incremental repair");
  const int session_reps = 10;
  bmp::engine::Planner session_planner;
  bmp::util::RunningStats recovery;
  int incremental = 0;
  int full = 0;
  bmp::util::Xoshiro256 churn_rng(1234);
  for (int rep = 0; rep < session_reps; ++rep) {
    const bmp::Instance platform = bmp::gen::random_instance(
        {size, 0.5, bmp::gen::Dist::kUnif100}, churn_rng);
    bmp::engine::Session session(session_planner, platform);
    if (session.design_rate() <= 0.0) continue;
    for (int wave = 0; wave < 3; ++wave) {
      const int peers = session.instance().size() - 1;
      if (peers < 10) break;
      std::vector<int> departed;
      for (int k = 0; k < std::max(1, peers / 50); ++k) {
        const int id = 1 + static_cast<int>(churn_rng.below(
                               static_cast<std::size_t>(peers)));
        if (std::find(departed.begin(), departed.end(), id) == departed.end()) {
          departed.push_back(id);
        }
      }
      const bmp::engine::ChurnOutcome outcome = session.on_departure(departed);
      if (outcome.full_replan) {
        ++full;
      } else {
        ++incremental;
        recovery.add(outcome.achieved_rate / outcome.design_rate);
      }
    }
  }
  std::cout << incremental << " incremental / " << full << " full replans; "
            << "incremental recovery mean "
            << (recovery.count() > 0 ? recovery.mean() : 0.0) << " min "
            << (recovery.count() > 0 ? recovery.min() : 0.0)
            << " of design rate\n";
  const bool churn_ok =
      incremental > 0 && recovery.count() > 0 && recovery.min() >= 0.9 - 1e-6;
  ok = ok && churn_ok;
  std::cout << (churn_ok
                    ? "[OK] small departures absorbed incrementally at >= 90%\n"
                    : "[WARN] incremental repair under-recovered\n");

  // Guarded-heavy churn: single departures from 1,000-peer platforms with
  // 46% guarded peers, where the repair's reroute pass has guarded upload
  // to swap in. Each departure's wall (repair, or re-plan when the repair
  // falls short) is timed; the worst must stay under 1 s.
  bmp::util::print_banner(std::cout, "Guarded-heavy churn — departure wall");
  const int heavy_size = 1000;
  const int heavy_platforms = cli.quick ? 2 : 5;
  const int heavy_departures = 20;
  bmp::engine::Planner heavy_planner;
  bmp::util::Xoshiro256 heavy_rng(4242);
  std::vector<double> departure_ms;
  for (int rep = 0; rep < heavy_platforms; ++rep) {
    bmp::engine::Session session(
        heavy_planner,
        bmp::gen::random_instance(
            {heavy_size, 0.54, bmp::gen::Dist::kUnif100}, heavy_rng));
    for (int k = 0; k < heavy_departures; ++k) {
      const int peers = session.instance().size() - 1;
      const int id = 1 + static_cast<int>(heavy_rng.below(
                             static_cast<std::size_t>(peers)));
      const auto start = std::chrono::steady_clock::now();
      session.on_departure({id});
      departure_ms.push_back(1e3 * seconds_since(start));
    }
  }
  const double departure_p50_ms = bmp::util::median(departure_ms);
  const double departure_worst_ms =
      *std::max_element(departure_ms.begin(), departure_ms.end());
  std::cout << heavy_platforms << " platforms x " << heavy_departures
            << " single departures, " << heavy_size
            << " peers, p_open 0.54: departure wall p50 " << departure_p50_ms
            << " ms, worst " << departure_worst_ms << " ms\n";
  const bool heavy_ok = departure_worst_ms <= 1000.0;
  ok = ok && heavy_ok;
  std::cout << (heavy_ok ? "[OK] " : "[WARN] ")
            << "worst guarded-heavy departure " << departure_worst_ms
            << " ms (need <= 1000)\n";

  if (!cli.json.empty()) {
    bmp::benchutil::JsonReport json;
    bmp::benchutil::add_header(json, "engine");
    json.add("requests", requests);
    json.add("distinct", distinct);
    json.add("cold_seconds", cold_s);
    json.add("cold_plans_per_s", static_cast<double>(requests) / cold_s);
    json.add("warm_plans_per_s", warm_plans_per_s);
    json.add("warm_speedup_vs_cold", best_warm);
    json.add("churn_incremental", incremental);
    json.add("churn_full", full);
    json.add("churn_recovery_min",
             recovery.count() > 0 ? recovery.min() : 0.0);
    json.add("departure_p50_ms", departure_p50_ms);
    json.add("departure_worst_ms", departure_worst_ms);
    json.add_string("status", ok ? "ok" : "warn");
    bmp::benchutil::add_profile(json, cli.prof);
    if (json.write(cli.json)) {
      std::cout << "json written to " << cli.json << "\n";
    } else {
      std::cout << "[WARN] could not write " << cli.json << "\n";
      ok = false;
    }
  }
  ok = cli.write_profile() && ok;
  return ok ? 0 : 1;
}
