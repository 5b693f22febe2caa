// Differential tests for the tiered verification engine (flow/verify.hpp):
// on random acyclic, cyclic, and post-churn restricted/repaired schemes the
// fast path must pick the expected tier deterministically and agree with
// the Dinic-per-sink oracle within 1e-9 (relative to the rate scale).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "bmp/core/acyclic_search.hpp"
#include "bmp/engine/session.hpp"
#include "bmp/flow/maxflow.hpp"
#include "bmp/flow/verify.hpp"
#include "bmp/sim/churn.hpp"
#include "test_helpers.hpp"

namespace bmp::flow {
namespace {

double tol_for(double reference) {
  return 1e-9 * std::max(1.0, std::abs(reference));
}

/// Random digraph scheme; `cyclic` guarantees at least one directed cycle.
BroadcastScheme random_scheme(util::Xoshiro256& rng, int num_nodes,
                              bool cyclic) {
  BroadcastScheme scheme(num_nodes);
  const int edges = num_nodes * 3;
  for (int e = 0; e < edges; ++e) {
    const int from = static_cast<int>(rng.below(static_cast<std::uint64_t>(num_nodes)));
    const int to = static_cast<int>(rng.below(static_cast<std::uint64_t>(num_nodes)));
    if (from == to) continue;
    if (!cyclic && from > to) continue;  // forward edges only => DAG
    scheme.add(from, to, rng.uniform(0.1, 5.0));
  }
  if (cyclic && num_nodes >= 3) {
    // Force a cycle through two non-source nodes.
    scheme.add(1, 2, 0.5);
    scheme.add(2, 1, 0.5);
    scheme.add(0, 1, 0.25);
  }
  return scheme;
}

TEST(Verify, AcyclicSchemesUseTierOneAndMatchOracle) {
  util::Xoshiro256 rng(2026);
  Verifier verifier;
  for (int rep = 0; rep < 40; ++rep) {
    const int n = 1 + static_cast<int>(rng.below(10));
    const int m = static_cast<int>(rng.below(6));
    const Instance instance = bmp::testing::random_instance(rng, n, m);
    const AcyclicSolution solution = solve_acyclic(instance);
    ASSERT_TRUE(solution.scheme.is_acyclic());

    const VerifyResult fast = verifier.verify(solution.scheme);
    const double oracle = scheme_throughput_oracle(solution.scheme);
    EXPECT_EQ(fast.tier, VerifyTier::kAcyclicSweep);
    EXPECT_EQ(fast.maxflow_solves, 0);
    EXPECT_NEAR(fast.throughput, oracle, tol_for(oracle));
  }
  EXPECT_EQ(verifier.stats().calls, 40u);
  EXPECT_EQ(verifier.stats().tier_sweep, 40u);
  EXPECT_EQ(verifier.stats().maxflow_solves, 0u);
}

TEST(Verify, RandomDagsMatchOracle) {
  // DAGs that do NOT come from a word schedule (unequal inflows, skipped
  // nodes): the min-inflow identity must hold for any acyclic overlay.
  util::Xoshiro256 rng(7);
  Verifier verifier;
  for (int rep = 0; rep < 60; ++rep) {
    const int num_nodes = 2 + static_cast<int>(rng.below(12));
    const BroadcastScheme scheme = random_scheme(rng, num_nodes, false);
    ASSERT_TRUE(scheme.is_acyclic());
    const VerifyResult fast = verifier.verify(scheme);
    const double oracle = scheme_throughput_oracle(scheme);
    EXPECT_EQ(fast.tier, VerifyTier::kAcyclicSweep);
    EXPECT_NEAR(fast.throughput, oracle, tol_for(oracle));
  }
}

TEST(Verify, CyclicSchemesUseTierTwoAndMatchOracle) {
  util::Xoshiro256 rng(99);
  Verifier verifier;
  int cyclic_seen = 0;
  for (int rep = 0; rep < 60; ++rep) {
    const int num_nodes = 3 + static_cast<int>(rng.below(12));
    const BroadcastScheme scheme = random_scheme(rng, num_nodes, true);
    const VerifyResult fast = verifier.verify(scheme);
    const double oracle = scheme_throughput_oracle(scheme);
    // Tier choice is a pure function of the overlay's structure.
    const VerifyTier expected = scheme.is_acyclic()
                                    ? VerifyTier::kAcyclicSweep
                                    : VerifyTier::kRootedMinCut;
    EXPECT_EQ(fast.tier, expected);
    EXPECT_NEAR(fast.throughput, oracle, tol_for(oracle));
    cyclic_seen += scheme.is_acyclic() ? 0 : 1;
  }
  EXPECT_GT(cyclic_seen, 0);  // the generator must actually exercise tier 2
}

TEST(Verify, Fig1CyclicOptimalScheme) {
  // The hand-built cyclic scheme of throughput 4.4 from test_flow.cpp.
  BroadcastScheme s(6);
  s.add(0, 3, 3.0);  s.add(0, 4, 0.6);  s.add(0, 5, 0.6);
  s.add(0, 1, 0.9);  s.add(0, 2, 0.9);
  s.add(1, 3, 1.4);  s.add(1, 4, 1.9);  s.add(1, 5, 1.7);
  s.add(2, 4, 1.9);  s.add(2, 5, 2.1);  s.add(2, 1, 1.0);
  s.add(3, 1, 2.5);  s.add(3, 2, 1.5);  s.add(4, 2, 1.0);  s.add(5, 2, 1.0);
  ASSERT_FALSE(s.is_acyclic());
  const VerifyResult fast = verify_throughput(s);
  EXPECT_EQ(fast.tier, VerifyTier::kRootedMinCut);
  EXPECT_NEAR(fast.throughput, 4.4, 1e-9);
}

TEST(Verify, PostChurnRestrictedAndRepairedSchemesMatchOracle) {
  util::Xoshiro256 rng(515151);
  Verifier verifier;
  for (int rep = 0; rep < 25; ++rep) {
    const int n = 4 + static_cast<int>(rng.below(8));
    const int m = static_cast<int>(rng.below(5));
    const Instance instance = bmp::testing::random_instance(rng, n, m);
    const AcyclicSolution solution = solve_acyclic(instance);

    // Drop 1-2 random non-source nodes.
    std::vector<int> departed;
    departed.push_back(1 + static_cast<int>(
                           rng.below(static_cast<std::uint64_t>(n + m))));
    const int second =
        1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(n + m)));
    if (second != departed[0]) departed.push_back(second);
    std::sort(departed.begin(), departed.end());

    const Instance survivors = sim::remove_nodes(instance, departed);
    const BroadcastScheme restricted =
        sim::restrict_scheme(solution.scheme, departed);
    const VerifyResult degraded = verifier.verify(restricted);
    EXPECT_NEAR(degraded.throughput, scheme_throughput_oracle(restricted),
                tol_for(degraded.throughput));

    const engine::RepairResult repair =
        engine::repair_scheme(survivors, restricted, solution.throughput);
    const double oracle = scheme_throughput_oracle(repair.scheme);
    EXPECT_NEAR(repair.throughput, oracle, tol_for(oracle));
    const VerifyResult repaired = verifier.verify(repair.scheme);
    EXPECT_EQ(repaired.tier, repair.scheme.is_acyclic()
                                 ? VerifyTier::kAcyclicSweep
                                 : VerifyTier::kRootedMinCut);
    EXPECT_NEAR(repaired.throughput, oracle, tol_for(oracle));
  }
}

TEST(Verify, ForcedTiersAgree) {
  util::Xoshiro256 rng(4242);
  const BroadcastScheme cyclic = random_scheme(rng, 10, true);
  ASSERT_FALSE(cyclic.is_acyclic());

  VerifyOptions oracle_opts;
  oracle_opts.force_tier = true;
  oracle_opts.tier = VerifyTier::kOracle;
  Verifier oracle_verifier(oracle_opts);
  const VerifyResult via_oracle = oracle_verifier.verify(cyclic);
  EXPECT_EQ(via_oracle.tier, VerifyTier::kOracle);
  EXPECT_NEAR(via_oracle.throughput, verify_throughput(cyclic).throughput,
              tol_for(via_oracle.throughput));

  // Tier 1 cannot be forced onto a cyclic overlay.
  VerifyOptions sweep_opts;
  sweep_opts.force_tier = true;
  sweep_opts.tier = VerifyTier::kAcyclicSweep;
  Verifier sweep_verifier(sweep_opts);
  EXPECT_THROW(sweep_verifier.verify(cyclic), std::invalid_argument);
}

TEST(Verify, LargeCyclicOverlayMatchesOracleInOneSolve) {
  util::Xoshiro256 rng(777);
  // Chain + back edge + random chords: every node has positive inflow, so
  // the rooted min cut runs over all 399 sinks.
  const int num_nodes = 400;
  BroadcastScheme scheme(num_nodes);
  for (int v = 1; v < num_nodes; ++v) scheme.add(v - 1, v, rng.uniform(1.0, 4.0));
  scheme.add(num_nodes - 1, 1, 1.0);  // closes a long cycle
  for (int e = 0; e < 2 * num_nodes; ++e) {
    const int from =
        static_cast<int>(rng.below(static_cast<std::uint64_t>(num_nodes)));
    const int to =
        static_cast<int>(rng.below(static_cast<std::uint64_t>(num_nodes)));
    if (from != to) scheme.add(from, to, rng.uniform(0.1, 2.0));
  }
  ASSERT_FALSE(scheme.is_acyclic());

  const VerifyResult fast = verify_throughput(scheme);
  EXPECT_EQ(fast.tier, VerifyTier::kRootedMinCut);
  EXPECT_EQ(fast.maxflow_solves, 1);
  EXPECT_GT(fast.pushes, 0u);
  const double oracle = scheme_throughput_oracle(scheme);
  EXPECT_NEAR(fast.throughput, oracle, tol_for(oracle));
}

/// Tier 2 forced (acyclic draws included) against the Dinic oracle.
void expect_rooted_cut_matches_oracle(Verifier& verifier,
                                      const BroadcastScheme& scheme) {
  const VerifyResult fast = verifier.verify(scheme);
  ASSERT_EQ(fast.tier, VerifyTier::kRootedMinCut);
  const double oracle = scheme_throughput_oracle(scheme);
  ASSERT_NEAR(fast.throughput, oracle, tol_for(oracle))
      << "nodes " << scheme.num_nodes();
}

TEST(Verify, RootedMinCutMatchesOracle) {
  VerifyOptions options;
  options.force_tier = true;
  options.tier = VerifyTier::kRootedMinCut;
  Verifier verifier(options);

  // Seeded fuzz: 2-41 nodes, edge density log-uniform from sparse to
  // near-complete, and now and then capacities within a few eps() of zero.
  util::Xoshiro256 rng(20260418);
  for (int rep = 0; rep < 20000; ++rep) {
    const int num_nodes = 2 + static_cast<int>(rng.below(40));
    const double density = 0.02 * std::pow(45.0, rng.uniform(0.0, 1.0));
    const bool near_eps = rng.below(8) == 0;
    BroadcastScheme scheme(num_nodes);
    for (int from = 0; from < num_nodes; ++from) {
      for (int to = 0; to < num_nodes; ++to) {
        if (from == to || rng.uniform(0.0, 1.0) >= density) continue;
        const double rate = near_eps && rng.below(4) == 0
                                ? 5.0 * 1e-12 * rng.uniform(0.5, 3.0)
                                : rng.uniform(0.1, 5.0);
        scheme.add(from, to, rate);
      }
    }
    // The eps() scale is relative to the largest capacity.
    if (near_eps) scheme.add(0, 1, 5.0);
    ASSERT_NO_FATAL_FAILURE(expect_rooted_cut_matches_oracle(verifier, scheme))
        << "rep " << rep;
  }

  // An unreachable node: zero, whatever else the graph carries.
  BroadcastScheme unreachable(4);
  unreachable.add(0, 1, 2.0);
  unreachable.add(1, 2, 2.0);
  unreachable.add(2, 1, 1.0);
  unreachable.add(3, 1, 4.0);
  expect_rooted_cut_matches_oracle(verifier, unreachable);
  EXPECT_DOUBLE_EQ(verifier.verify(unreachable).throughput, 0.0);

  // Edges into the source never cross a rooted cut.
  BroadcastScheme into_source(3);
  into_source.add(0, 1, 3.0);
  into_source.add(1, 2, 2.0);
  into_source.add(2, 0, 7.0);
  into_source.add(1, 0, 7.0);
  expect_rooted_cut_matches_oracle(verifier, into_source);
  EXPECT_DOUBLE_EQ(verifier.verify(into_source).throughput, 2.0);

  BroadcastScheme two(2);
  two.add(0, 1, 1.25);
  two.add(1, 0, 9.0);
  expect_rooted_cut_matches_oracle(verifier, two);
  EXPECT_DOUBLE_EQ(verifier.verify(two).throughput, 1.25);

  // Min inflow is node 3's 3.0, but nodes 1 and 2 receive 4.0 each only
  // by feeding each other: from the source they get 1.0 + 1.0 = 2.0.
  BroadcastScheme hidden_min(4);
  hidden_min.add(0, 1, 1.0);
  hidden_min.add(0, 2, 1.0);
  hidden_min.add(1, 2, 3.0);
  hidden_min.add(2, 1, 3.0);
  hidden_min.add(0, 3, 3.0);
  expect_rooted_cut_matches_oracle(verifier, hidden_min);
  EXPECT_NEAR(verifier.verify(hidden_min).throughput, 2.0, 1e-12);
}

TEST(Verify, SingleNodeAndZeroInflowEdgeCases) {
  // A node with zero inflow pins the throughput at zero without a solve.
  BroadcastScheme disconnected(3);
  disconnected.add(0, 1, 2.0);
  const VerifyResult zero = verify_throughput(disconnected);
  EXPECT_DOUBLE_EQ(zero.throughput, 0.0);
  EXPECT_EQ(zero.maxflow_solves, 0);
  EXPECT_DOUBLE_EQ(scheme_throughput_oracle(disconnected), 0.0);
}

TEST(Verify, PlannerRecordsVerifiedThroughput) {
  // verify_plans (default on) must re-measure every computed plan through
  // the tiered verifier and agree with the construction's claimed rate —
  // the differential check that would catch a construction bug in CI.
  util::Xoshiro256 rng(606);
  engine::Planner planner;
  for (int rep = 0; rep < 10; ++rep) {
    const Instance instance = bmp::testing::random_instance(
        rng, 3 + static_cast<int>(rng.below(8)),
        static_cast<int>(rng.below(4)));
    const engine::PlanResponse response =
        planner.plan(instance, engine::Algorithm::kAuto);
    ASSERT_GE(response.verified_throughput, 0.0);
    EXPECT_NEAR(response.verified_throughput, response.throughput,
                1e-6 * std::max(1.0, response.throughput));
  }

  // Cache hits inherit the stored verified value.
  engine::Planner fresh;
  const Instance fig1 = bmp::testing::fig1_instance();
  const engine::PlanResponse first =
      fresh.plan(fig1, engine::Algorithm::kAcyclic);
  const engine::PlanResponse second =
      fresh.plan(fig1, engine::Algorithm::kAcyclic);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_DOUBLE_EQ(second.verified_throughput, first.verified_throughput);

  // Opting out leaves the field unset.
  engine::PlannerConfig config;
  config.verify_plans = false;
  engine::Planner unverified(config);
  const engine::PlanResponse off =
      unverified.plan(fig1, engine::Algorithm::kAcyclic);
  EXPECT_LT(off.verified_throughput, 0.0);
}

TEST(Verify, StatsAccumulateTierCountsAndSolves) {
  util::Xoshiro256 rng(31337);
  Verifier verifier;
  const BroadcastScheme dag = random_scheme(rng, 8, false);
  const BroadcastScheme cyc = random_scheme(rng, 8, true);
  ASSERT_FALSE(cyc.is_acyclic());
  verifier.verify(dag);
  verifier.verify(cyc);
  verifier.verify(dag);
  const VerifyStats& stats = verifier.stats();
  EXPECT_EQ(stats.calls, 3u);
  EXPECT_EQ(stats.tier_sweep, 2u);
  EXPECT_EQ(stats.tier_maxflow, 1u);
  EXPECT_GE(stats.total_us, 0.0);
}

}  // namespace
}  // namespace bmp::flow
