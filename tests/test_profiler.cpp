// Profiler determinism tests — the acceptance surface of the performance
// attribution subsystem (obs/profiler.hpp):
//   * unit: phase aggregation is order-independent, null hooks are free;
//   * byte-identity: the full five-layer closed loop (the 500-node control
//     acceptance scenario) produces byte-identical to_json/to_collapsed/
//     summary_json across repeated runs AND across planner thread counts;
//   * tier-2 verify: the rooted min cut's push/relabel counters repeat
//     exactly across runs and across planner thread counts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bmp/core/bounds.hpp"
#include "bmp/core/cyclic_open.hpp"
#include "bmp/engine/planner.hpp"
#include "bmp/flow/verify.hpp"
#include "bmp/gen/generator.hpp"
#include "bmp/obs/profiler.hpp"
#include "bmp/runtime/runtime.hpp"
#include "bmp/runtime/scenario.hpp"
#include "bmp/util/rng.hpp"

namespace bmp {
namespace {

// ----------------------------------------------------------------- units

TEST(Profiler, AggregationIsInsertionOrderIndependent) {
  obs::Profiler a;
  a.enter("plan/compute");
  a.count("plan/compute", "solves", 3);
  a.count("verify/tier2", "bfs_rounds", 7);
  a.enter("verify/tier2");
  a.count("plan/compute", "solves", 2);

  obs::Profiler b;  // same totals, different arrival order
  b.count("verify/tier2", "bfs_rounds", 7);
  b.count("plan/compute", "solves", 2);
  b.enter("verify/tier2");
  b.enter("plan/compute");
  b.count("plan/compute", "solves", 3);

  EXPECT_EQ(a.calls("plan/compute"), 1u);
  EXPECT_EQ(a.counter("plan/compute", "solves"), 5u);
  EXPECT_EQ(a.work("plan/compute"), 5u);   // counters, not calls
  EXPECT_EQ(a.work("verify/tier2"), 7u);
  EXPECT_EQ(a.total("solves"), 5u);
  EXPECT_EQ(a.total_work(), 12u);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.to_collapsed(), b.to_collapsed());
  EXPECT_EQ(a.summary_json(), b.summary_json());
}

TEST(Profiler, WorkFallsBackToCallsWithoutCounters) {
  obs::Profiler profiler;
  profiler.enter("runtime/step");
  profiler.enter("runtime/step");
  EXPECT_EQ(profiler.work("runtime/step"), 2u);
  EXPECT_EQ(profiler.total_work(), 2u);
}

TEST(Profiler, NullHooksAreSafeAndFree) {
  // The disabled-hook contract: every RAII helper must be a no-op with a
  // null profiler — this is the branch every call site pays by default.
  {
    const obs::PhaseScope scope(nullptr, "never/recorded");
  }
  obs::Profiler profiler;
  EXPECT_TRUE(profiler.empty());
  EXPECT_EQ(profiler.phase_count(), 0u);
  EXPECT_EQ(profiler.total_work(), 0u);
}

// --------------------------------------- closed-loop byte-identity proofs

/// The ISSUE 5 control-acceptance scenario: a brownout hits 10% of the
/// peers mid-stream and the adaptive loop re-plans around it. Exercises
/// every instrumented layer: planner, tiered verifier, session churn,
/// broker rebalance, dataplane scheduler, controller decide.
runtime::ScenarioScript adaptive_script(int peers, double horizon,
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

/// Runs the adaptive closed loop with `profiler` attached to every layer
/// and returns after the horizon; the profiler holds the attribution.
void run_profiled_loop(const runtime::ScenarioScript& script,
                       std::size_t planner_threads, obs::Profiler* profiler) {
  runtime::RuntimeConfig config;
  config.collect_timing = false;
  config.broker_headroom = 0.05;
  config.planner.threads = planner_threads;
  config.dataplane.execute = true;
  config.dataplane.execution.chunk_size = 4.0;
  config.dataplane.execution.receiver_window = 16;
  config.control.enabled = true;
  config.profiler = profiler;
  runtime::Runtime rt(config, script.source_bandwidth, script.initial_peers);
  for (const runtime::Event& event : script.events) rt.step(event);
  EXPECT_TRUE(rt.validate().empty());
}

TEST(ProfilerDeterminism, ByteIdenticalAcrossRuns) {
  const runtime::ScenarioScript script = adaptive_script(500, 24.0, 2026);
  obs::Profiler first;
  obs::Profiler second;
  run_profiled_loop(script, 0, &first);
  run_profiled_loop(script, 0, &second);

  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first.to_json(), second.to_json());
  EXPECT_EQ(first.to_collapsed(), second.to_collapsed());
  EXPECT_EQ(first.summary_json(), second.summary_json());

  // The attribution must actually span the layers, not just exist.
  for (const char* phase :
       {"runtime/step", "planner/compute", "runtime/session/build",
        "dataplane/advance", "dataplane/scheduler",
        "runtime/control/decide"}) {
    EXPECT_GT(first.work(phase), 0u) << phase;
  }
  EXPECT_GT(first.counter("dataplane/advance", "delivered"), 0u);
}

TEST(ProfilerDeterminism, ByteIdenticalAcrossPlannerThreadCounts) {
  // Worker threads only ever add commutative counter sums, so the report
  // cannot depend on how plan_batch work interleaved.
  const runtime::ScenarioScript script = adaptive_script(150, 14.0, 11);
  obs::Profiler one_thread;
  obs::Profiler four_threads;
  run_profiled_loop(script, 1, &one_thread);
  run_profiled_loop(script, 4, &four_threads);

  ASSERT_FALSE(one_thread.empty());
  EXPECT_EQ(one_thread.to_json(), four_threads.to_json());
  EXPECT_EQ(one_thread.to_collapsed(), four_threads.to_collapsed());
  EXPECT_EQ(one_thread.summary_json(), four_threads.summary_json());
}

// ------------------------------------------- tier-2 verify work counters

TEST(TierTwoVerify, WorkCountersRepeatExactly) {
  // A Thm 5.2 cyclic overlay over 400 open nodes.
  util::Xoshiro256 rng(7);
  std::vector<double> open_bw(400);
  for (auto& b : open_bw) b = rng.uniform(1.0, 10.0);
  const Instance open_only(rng.uniform(5.0, 10.0), std::move(open_bw), {});
  const BroadcastScheme cyclic =
      build_cyclic_open(open_only, cyclic_open_optimal(open_only));

  std::string first_report;
  double first_throughput = 0.0;
  for (int rep = 0; rep < 2; ++rep) {
    obs::Profiler profile;
    obs::Hooks hooks;
    hooks.profiler = &profile;
    flow::Verifier verifier({}, hooks);
    const flow::VerifyResult result = verifier.verify(cyclic);
    EXPECT_EQ(result.tier, flow::VerifyTier::kRootedMinCut);
    EXPECT_EQ(result.maxflow_solves, 1);
    EXPECT_GT(result.pushes, 0u);
    EXPECT_EQ(profile.counter("verify/tier2_maxflow", "pushes"), result.pushes);
    EXPECT_EQ(profile.counter("verify/tier2_maxflow", "relabels"),
              result.relabels);
    if (rep == 0) {
      first_report = profile.summary_json();
      first_throughput = result.throughput;
    } else {
      EXPECT_EQ(profile.summary_json(), first_report);
      EXPECT_EQ(result.throughput, first_throughput);
    }
  }
}

TEST(TierTwoVerify, PlannerCountersIndependentOfThreadCount) {
  // Cyclic constructions verified on the planner's workers, each through
  // its own thread-local verifier: the summed push/relabel counters must
  // not depend on which worker verified which plan.
  std::vector<engine::PlanRequest> requests;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    util::Xoshiro256 rng(seed);
    std::vector<double> open_bw(120 + 40 * seed);
    for (auto& b : open_bw) b = rng.uniform(1.0, 10.0);
    requests.push_back({Instance(rng.uniform(5.0, 10.0), std::move(open_bw), {}),
                        engine::Algorithm::kCyclic, 0});
  }
  std::string reports[2];
  const std::size_t threads[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    obs::Profiler profile;
    engine::PlannerConfig config;
    config.threads = threads[i];
    obs::Hooks hooks;
    hooks.profiler = &profile;
    engine::Planner planner(config, hooks);
    for (const engine::PlanResponse& response : planner.plan_batch(requests)) {
      EXPECT_EQ(response.verified_tier, flow::VerifyTier::kRootedMinCut);
    }
    EXPECT_EQ(profile.counter("planner/compute/verify", "tier2_verifies"), 6u);
    EXPECT_EQ(profile.counter("planner/compute/verify", "solves"), 6u);
    EXPECT_GT(profile.counter("planner/compute/verify", "pushes"), 0u);
    EXPECT_GT(profile.counter("planner/compute/verify", "relabels"), 0u);
    reports[i] = profile.summary_json();
  }
  EXPECT_EQ(reports[0], reports[1]);
}

}  // namespace
}  // namespace bmp
