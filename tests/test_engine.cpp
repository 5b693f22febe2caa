// Planning-engine tests: fingerprint canonicalization, plan-cache
// accounting, batch determinism across thread counts, and churn-session
// repair-vs-replan decisions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <tuple>
#include <vector>

#include "bmp/core/acyclic_search.hpp"
#include "bmp/core/bounds.hpp"
#include "bmp/engine/fingerprint.hpp"
#include "bmp/engine/plan_cache.hpp"
#include "bmp/engine/planner.hpp"
#include "bmp/engine/session.hpp"
#include "bmp/flow/maxflow.hpp"
#include "bmp/flow/verify.hpp"
#include "bmp/gen/generator.hpp"
#include "bmp/sim/churn.hpp"
#include "test_helpers.hpp"

namespace bmp::engine {
namespace {

// ------------------------------------------------------------- fingerprint

TEST(Fingerprint, InsensitiveToInputOrder) {
  const Instance a(6.0, {5.0, 3.0, 4.0}, {2.0, 1.0});
  const Instance b(6.0, {4.0, 5.0, 3.0}, {1.0, 2.0});
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

TEST(Fingerprint, SensitiveToBandwidths) {
  const Instance a(6.0, {5.0, 5.0}, {4.0, 1.0, 1.0});
  const Instance b(6.0, {5.0, 5.0}, {4.0, 1.0, 2.0});
  const Instance c(7.0, {5.0, 5.0}, {4.0, 1.0, 1.0});
  EXPECT_NE(fingerprint(a), fingerprint(b));
  EXPECT_NE(fingerprint(a), fingerprint(c));
}

TEST(Fingerprint, SensitiveToClassAssignment) {
  // Same bandwidth multiset, different open/guarded split.
  const Instance a(6.0, {5.0, 4.0}, {3.0});
  const Instance b(6.0, {5.0}, {4.0, 3.0});
  EXPECT_NE(fingerprint(a), fingerprint(b));
  EXPECT_NE(fingerprint(a).n, fingerprint(b).n);
}

TEST(Fingerprint, BucketsAbsorbJitter) {
  const Instance base(6.0, {5.0, 5.0}, {4.0});
  const Instance jittered(6.0 + 1e-9, {5.0 - 2e-9, 5.0}, {4.0 + 1e-9});
  const Instance shifted(6.0, {5.0, 5.1}, {4.0});
  EXPECT_EQ(fingerprint(base, 1e-3), fingerprint(jittered, 1e-3));
  EXPECT_NE(fingerprint(base, 1e-3), fingerprint(shifted, 1e-3));
}

TEST(Fingerprint, InvalidBucketThrows) {
  const Instance a(1.0, {1.0}, {});
  EXPECT_THROW((void)fingerprint(a, 0.0), std::invalid_argument);
  EXPECT_THROW((void)fingerprint(a, -1.0), std::invalid_argument);
  EXPECT_THROW(IncrementalFingerprint(a, 0.0), std::invalid_argument);
}

// ------------------------------------------------- incremental fingerprint

TEST(IncrementalFingerprint, MatchesFullRehashUnderRandomChurn) {
  // The ROADMAP perf-frontier contract: the live fingerprint maintained in
  // O(1) per join/leave delta must equal the full rehash of the survivor
  // platform after *every* event of a randomized churn sequence.
  for (const double bucket : {1e-6, 1e-3}) {
    util::Xoshiro256 rng(2027);
    std::vector<double> open;
    std::vector<double> guarded;
    for (int i = 0; i < 40; ++i) {
      (i % 3 == 0 ? guarded : open)
          .push_back(1.0 + static_cast<double>(rng.below(1000)) / 7.0);
    }
    const double source_bw = 100.0;
    IncrementalFingerprint live(Instance(source_bw, open, guarded), bucket);
    for (int step = 0; step < 300; ++step) {
      const bool join = rng.uniform() < 0.45 || open.size() + guarded.size() < 4;
      const bool pick_guarded = rng.uniform() < 0.4;
      auto& cls = pick_guarded ? guarded : open;
      if (join) {
        const double bandwidth = static_cast<double>(rng.below(1000)) / 3.0;
        cls.push_back(bandwidth);
        if (pick_guarded) {
          live.add_guarded(bandwidth);
        } else {
          live.add_open(bandwidth);
        }
      } else if (!cls.empty()) {
        const std::size_t victim = rng.below(cls.size());
        const double bandwidth = cls[victim];
        cls.erase(cls.begin() + static_cast<std::ptrdiff_t>(victim));
        if (pick_guarded) {
          live.remove_guarded(bandwidth);
        } else {
          live.remove_open(bandwidth);
        }
      }
      const Fingerprint rehash =
          fingerprint(Instance(source_bw, open, guarded), bucket);
      ASSERT_EQ(live.value(), rehash) << "step " << step << " bucket " << bucket;
    }
  }
}

TEST(IncrementalFingerprint, RemoveBySortedIdTracksRemoveNodes) {
  util::Xoshiro256 rng(99);
  Instance platform(50.0, {9.0, 3.0, 7.0, 5.0, 1.0}, {8.0, 2.0, 6.0});
  IncrementalFingerprint live(platform, 1e-6);
  while (platform.size() > 2) {
    const int victim = 1 + static_cast<int>(rng.below(
                               static_cast<std::uint64_t>(platform.size() - 1)));
    live.remove(platform, victim);
    platform = sim::remove_nodes(platform, {victim});
    ASSERT_EQ(live.value(), fingerprint(platform, 1e-6));
  }
  EXPECT_THROW(live.remove(platform, 0), std::invalid_argument);
  EXPECT_THROW(live.remove(platform, platform.size()), std::invalid_argument);
}

TEST(IncrementalFingerprint, PlannerAcceptsPrecomputedKeys) {
  // The fingerprint-forwarding plan path must hit the cache entries the
  // rehashing path populated, and vice versa.
  Planner planner;
  const Instance platform(20.0, {6.0, 5.0, 4.0}, {3.0, 2.0});
  const PlanResponse computed = planner.plan(platform, Algorithm::kAcyclic, 0);
  EXPECT_FALSE(computed.cache_hit);
  const IncrementalFingerprint live(platform,
                                    planner.config().fingerprint_bucket);
  const PlanResponse hit =
      planner.plan(platform, Algorithm::kAcyclic, 0, live.value());
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_DOUBLE_EQ(hit.throughput, computed.throughput);
  EXPECT_EQ(planner.request_key(platform, Algorithm::kAcyclic, 0),
            planner.request_key(live.value(), Algorithm::kAcyclic, 0));
}

TEST(IncrementalFingerprint, SessionChurnKeysMatchTheRehashedPlatform) {
  // After a full-replan churn event, a fresh request for the session's
  // survivor platform must be a cache hit: the session's incrementally
  // maintained key and the rehashed key agree.
  Planner planner;
  SessionConfig config;
  config.replan_threshold = 1.0;  // replan aggressively to exercise the key
  Session session(planner, Instance(12.0, {8.0, 7.0, 6.0, 5.0, 4.0}, {3.0, 2.0}),
                  config);
  // The three strongest uploaders depart: no repair can reach the old
  // design rate, so the session full-replans through its incremental key.
  const ChurnOutcome outcome = session.on_departure({1, 2, 3});
  ASSERT_TRUE(outcome.full_replan);
  const PlanResponse again =
      planner.plan(session.instance(), kSessionAlgorithm, kSessionMaxOutDegree);
  EXPECT_TRUE(again.cache_hit);
}

// -------------------------------------------------------------- plan cache

std::shared_ptr<const PlanResponse> dummy_plan(double throughput) {
  auto response = std::make_shared<PlanResponse>();
  response->throughput = throughput;
  return response;
}

Fingerprint key_of(std::uint64_t h) {
  Fingerprint key;
  key.hash = h;
  key.n = 1;
  key.m = 0;
  return key;
}

TEST(PlanCache, HitMissAccounting) {
  PlanCache cache(8, 2);
  EXPECT_EQ(cache.lookup(key_of(1)), nullptr);
  cache.insert(key_of(1), dummy_plan(4.0));
  const auto hit = cache.lookup(key_of(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit->throughput, 4.0);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.size, 1u);
}

TEST(PlanCache, EvictsLeastRecentlyUsed) {
  // Single shard so the LRU order is global and predictable.
  PlanCache cache(2, 1);
  cache.insert(key_of(1), dummy_plan(1.0));
  cache.insert(key_of(2), dummy_plan(2.0));
  EXPECT_NE(cache.lookup(key_of(1)), nullptr);  // 1 is now MRU
  cache.insert(key_of(3), dummy_plan(3.0));     // evicts 2
  EXPECT_EQ(cache.lookup(key_of(2)), nullptr);
  EXPECT_NE(cache.lookup(key_of(1)), nullptr);
  EXPECT_NE(cache.lookup(key_of(3)), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().size, 2u);
}

TEST(PlanCache, ZeroCapacityDisables) {
  PlanCache cache(0, 4);
  cache.insert(key_of(1), dummy_plan(1.0));
  EXPECT_EQ(cache.lookup(key_of(1)), nullptr);
  EXPECT_EQ(cache.stats().size, 0u);
}

TEST(PlanCache, ClearEmptiesAllShards) {
  PlanCache cache(32, 4);
  for (std::uint64_t k = 0; k < 20; ++k) cache.insert(key_of(k), dummy_plan(1.0));
  EXPECT_GT(cache.size(), 0u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

// ----------------------------------------------------------------- planner

TEST(Planner, MatchesDirectSolve) {
  const Instance platform = bmp::testing::fig1_instance();
  Planner planner;
  const PlanResponse response =
      planner.plan(PlanRequest{platform, Algorithm::kAcyclic, 0});
  const AcyclicSolution direct = solve_acyclic(platform);
  EXPECT_NEAR(response.throughput, direct.throughput, 1e-9);
  EXPECT_FALSE(response.cache_hit);
  ASSERT_NE(response.scheme, nullptr);
  EXPECT_TRUE(response.scheme->validate(platform).empty());
  EXPECT_NEAR(flow::scheme_throughput(*response.scheme), response.throughput,
              1e-6);
}

TEST(Planner, SecondCallHitsCache) {
  Planner planner;
  const PlanRequest request{bmp::testing::fig1_instance(), Algorithm::kAcyclic, 0};
  const PlanResponse first = planner.plan(request);
  const PlanResponse second = planner.plan(request);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.scheme.get(), second.scheme.get());  // shared, not copied
  EXPECT_EQ(planner.cache_stats().hits, 1u);
}

TEST(Planner, KeyDependsOnAlgorithmAndBound) {
  Planner planner;
  const Instance platform = bmp::testing::fig1_instance();
  const Fingerprint acyclic =
      planner.request_key(PlanRequest{platform, Algorithm::kAcyclic, 0});
  const Fingerprint autoalg =
      planner.request_key(PlanRequest{platform, Algorithm::kAuto, 0});
  const Fingerprint bounded =
      planner.request_key(PlanRequest{platform, Algorithm::kAcyclic, 3});
  EXPECT_NE(acyclic, autoalg);
  EXPECT_NE(acyclic, bounded);
}

TEST(Planner, CyclicOnOpenOnlyReachesTheorem52) {
  const Instance platform = bmp::testing::fig14_instance();
  Planner planner;
  const PlanResponse response =
      planner.plan(PlanRequest{platform, Algorithm::kCyclic, 0});
  EXPECT_EQ(response.algorithm, Algorithm::kCyclic);
  EXPECT_NEAR(response.throughput, cyclic_open_optimal(platform), 1e-9);
  EXPECT_TRUE(response.scheme->validate(platform).empty());
}

TEST(Planner, CyclicFallsBackWithGuardedNodes) {
  Planner planner;
  const PlanResponse response = planner.plan(
      PlanRequest{bmp::testing::fig1_instance(), Algorithm::kCyclic, 0});
  EXPECT_EQ(response.algorithm, Algorithm::kAcyclic);
}

TEST(Planner, AutoHonorsDegreeBound) {
  bmp::util::Xoshiro256 rng(5);
  Planner planner;
  for (int rep = 0; rep < 10; ++rep) {
    const Instance platform = bmp::testing::random_instance(rng, 8, 4);
    const PlanResponse bounded =
        planner.plan(PlanRequest{platform, Algorithm::kAuto, 3});
    if (bounded.degree_bound_met) {
      EXPECT_LE(bounded.max_degree, 3);
    }
    EXPECT_TRUE(bounded.scheme->validate(platform).empty());
  }
}

// At 200k all-open peers these seeds run solve_acyclic's pools dry, so
// the acyclic candidate throws. kAuto must still serve the Thm 5.2 one.
TEST(Planner, AutoDropsAThrowingCandidate) {
  for (const std::uint64_t seed : {3, 4, 10}) {
    bmp::util::Xoshiro256 rng(seed);
    const Instance platform =
        gen::random_instance({200000, 1.0, gen::Dist::kUnif100}, rng);
    const PlanResponse response =
        Planner::plan_uncached(platform, Algorithm::kAuto, 0);
    const double verified =
        flow::Verifier().verify(*response.scheme).throughput;
    EXPECT_NEAR(verified, response.throughput, 1e-9 * response.throughput)
        << "seed " << seed;
  }
}

TEST(Planner, BatchDeterministicAcrossThreadCounts) {
  bmp::util::Xoshiro256 rng(11);
  std::vector<PlanRequest> stream;
  for (int r = 0; r < 40; ++r) {
    // 10 distinct platforms, each requested 4 times.
    bmp::util::Xoshiro256 fork = rng.fork(static_cast<std::uint64_t>(r % 10));
    stream.push_back(PlanRequest{
        bmp::testing::random_instance(fork, 10, 5), Algorithm::kAuto, 0});
  }

  std::vector<std::vector<PlanResponse>> runs;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}, std::size_t{7}}) {
    PlannerConfig config;
    config.threads = threads;
    Planner planner(config);
    runs.push_back(planner.plan_batch(stream));
  }
  for (std::size_t run = 1; run < runs.size(); ++run) {
    ASSERT_EQ(runs[run].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_DOUBLE_EQ(runs[run][i].throughput, runs[0][i].throughput);
      EXPECT_EQ(runs[run][i].algorithm, runs[0][i].algorithm);
      EXPECT_EQ(runs[run][i].max_degree, runs[0][i].max_degree);
      EXPECT_EQ(runs[run][i].cache_hit, runs[0][i].cache_hit);
      EXPECT_EQ(runs[run][i].scheme->edge_count(), runs[0][i].scheme->edge_count());
    }
  }
}

TEST(Planner, BatchDedupesDuplicates) {
  PlannerConfig config;
  config.threads = 4;
  Planner planner(config);
  const std::vector<PlanRequest> stream(
      8, PlanRequest{bmp::testing::fig1_instance(), Algorithm::kAcyclic, 0});
  const std::vector<PlanResponse> responses = planner.plan_batch(stream);
  ASSERT_EQ(responses.size(), 8u);
  EXPECT_FALSE(responses[0].cache_hit);
  for (std::size_t i = 1; i < responses.size(); ++i) {
    EXPECT_TRUE(responses[i].cache_hit);
    EXPECT_EQ(responses[i].scheme.get(), responses[0].scheme.get());
  }
  // Only one miss was ever planned.
  EXPECT_EQ(planner.cache_stats().misses, 1u);
  EXPECT_EQ(planner.cache_stats().insertions, 1u);
}

// ----------------------------------------------------------------- session

TEST(Session, RepairRestoresOrphanedNode) {
  // Generous slack: the source alone could re-feed a lost subtree.
  const Instance platform(20.0, {10.0, 10.0, 10.0}, {5.0, 5.0});
  Planner planner;
  Session session(planner, platform);
  const double design = session.design_rate();
  ASSERT_GT(design, 0.0);

  const ChurnOutcome outcome = session.on_departure({1});
  EXPECT_FALSE(outcome.full_replan);
  EXPECT_GE(outcome.achieved_rate, 0.9 * design - 1e-9);
  EXPECT_EQ(session.incremental_replans(), 1);
  EXPECT_EQ(session.full_replans(), 0);
  EXPECT_EQ(session.instance().size(), platform.size() - 1);
  // The repaired overlay is valid and its verified throughput is honest.
  EXPECT_TRUE(session.scheme().validate(session.instance()).empty());
  EXPECT_NEAR(flow::scheme_throughput(session.scheme()),
              session.current_rate(), 1e-6);
}

TEST(Session, CatastrophicDepartureForcesFullReplan) {
  // Removing the big open nodes leaves survivors that cannot sustain the
  // design rate: Lemma 5.1 caps them strictly below 90% of it.
  const Instance platform(10.0, {10.0, 10.0, 10.0, 10.0}, {1.0, 1.0});
  Planner planner;
  Session session(planner, platform);
  const double design = session.design_rate();
  ASSERT_GT(design, 0.0);

  const ChurnOutcome outcome = session.on_departure({1, 2, 3});
  const Instance& survivors = session.instance();
  EXPECT_TRUE(outcome.full_replan);
  EXPECT_EQ(session.full_replans(), 1);
  // Full replan resets the design rate to the survivors' optimum.
  EXPECT_NEAR(session.design_rate(), solve_acyclic(survivors).throughput, 1e-9);
  EXPECT_TRUE(session.scheme().validate(survivors).empty());
}

TEST(Session, OutageServesTheBelowBarRepairOfADeparture) {
  // The departure of CatastrophicDepartureForcesFullReplan, with the
  // planner down: the repair misses the bar and is served as it is.
  const Instance platform(10.0, {10.0, 10.0, 10.0, 10.0}, {1.0, 1.0});
  PlannerOutage outage;
  PlannerConfig config;
  config.outage = &outage;
  Planner planner(config);
  Session session(planner, platform);
  const double design = session.design_rate();
  outage.down = true;

  const ChurnOutcome outcome = session.on_departure({1, 2, 3});
  EXPECT_TRUE(outcome.planner_fault);
  EXPECT_FALSE(outcome.full_replan);
  EXPECT_LT(outcome.repaired_rate, 0.9 * design);
  EXPECT_EQ(outcome.achieved_rate, outcome.repaired_rate);
  EXPECT_EQ(session.current_rate(), outcome.repaired_rate);
  EXPECT_EQ(session.design_rate(), design);
  EXPECT_EQ(session.full_replans(), 0);
  EXPECT_EQ(session.incremental_replans(), 1);
  EXPECT_EQ(session.instance().size(), platform.size() - 3);
  EXPECT_TRUE(session.scheme().validate(session.instance()).empty());
}

TEST(Session, EmptyDepartureIsNoop) {
  Planner planner;
  Session session(planner, bmp::testing::fig1_instance());
  const ChurnOutcome outcome = session.on_departure({});
  EXPECT_EQ(outcome.departed, 0);
  EXPECT_DOUBLE_EQ(outcome.achieved_rate, session.design_rate());
  EXPECT_EQ(session.incremental_replans(), 0);
  EXPECT_EQ(session.full_replans(), 0);
}

TEST(Session, BadDepartureIdThrows) {
  Planner planner;
  Session session(planner, bmp::testing::fig1_instance());
  EXPECT_THROW(session.on_departure({0}), std::invalid_argument);
  EXPECT_THROW(session.on_departure({99}), std::invalid_argument);
}

TEST(RepairScheme, PatchKeepsSchemeValid) {
  bmp::util::Xoshiro256 rng(21);
  for (int rep = 0; rep < 8; ++rep) {
    const Instance platform = bmp::testing::random_instance(rng, 12, 6);
    const AcyclicSolution solution = solve_acyclic(platform);
    if (solution.throughput <= 0.0) continue;
    const std::vector<int> departed{3, 9};
    const Instance survivors = sim::remove_nodes(platform, departed);
    const BroadcastScheme restricted =
        sim::restrict_scheme(solution.scheme, departed);
    const RepairResult repair =
        repair_scheme(survivors, restricted, solution.throughput);
    EXPECT_TRUE(repair.scheme.validate(survivors).empty());
    EXPECT_TRUE(repair.scheme.is_acyclic());
    // Repair can only improve on doing nothing.
    EXPECT_GE(repair.throughput,
              flow::scheme_throughput(restricted) - 1e-9);
  }
}

TEST(Session, CapacitiesExposesPlannedPlatform) {
  const Instance platform = bmp::testing::fig1_instance();
  Planner planner;
  Session session(planner, platform);
  const std::vector<double> caps = session.capacities();
  ASSERT_EQ(caps.size(), static_cast<std::size_t>(platform.size()));
  for (int i = 0; i < platform.size(); ++i) {
    EXPECT_DOUBLE_EQ(caps[static_cast<std::size_t>(i)], platform.b(i));
  }
}

TEST(Session, RescaleIsExact) {
  Planner planner;
  Session session(planner, bmp::testing::fig1_instance());
  const double design = session.design_rate();
  const int edges = session.scheme().edge_count();
  ASSERT_GT(design, 0.0);

  session.rescale(0.25);
  EXPECT_NEAR(session.design_rate(), 0.25 * design, 1e-12);
  EXPECT_NEAR(session.current_rate(), 0.25 * design, 1e-12);
  EXPECT_EQ(session.scheme().edge_count(), edges);  // same overlay, scaled
  EXPECT_TRUE(session.scheme().validate(session.instance()).empty());
  EXPECT_NEAR(flow::scheme_throughput(session.scheme()),
              session.current_rate(), 1e-9);
  // Scaled caps are visible through the broker-facing accessor.
  EXPECT_NEAR(session.capacities()[0],
              0.25 * bmp::testing::fig1_instance().b(0), 1e-12);

  session.rescale(4.0);  // round-trips back to the original platform
  EXPECT_NEAR(session.design_rate(), design, 1e-9);

  EXPECT_THROW(session.rescale(0.0), std::invalid_argument);
  EXPECT_THROW(session.rescale(-1.0), std::invalid_argument);
}

TEST(Session, RescaledSessionStillAbsorbsChurn) {
  const Instance platform(20.0, {10.0, 10.0, 10.0}, {5.0, 5.0});
  Planner planner;
  Session session(planner, platform);
  session.rescale(0.5);
  const double design = session.design_rate();
  const ChurnOutcome outcome = session.on_departure({1});
  EXPECT_GE(outcome.achieved_rate, 0.9 * design - 1e-9);
  EXPECT_TRUE(session.scheme().validate(session.instance()).empty());
}

// -------------------------------------------- repair_scheme edge cases

TEST(RepairScheme, NoSurvivorWithSpareUploadLeavesDeficit) {
  // Source -> 1 -> 2 chain at rate 1 saturates every positive budget;
  // node 3 (zero upload) is orphaned and no survivor has spare upload to
  // re-feed it. The patch must add nothing and stay valid rather than
  // oversubscribe someone.
  const Instance survivors(1.0, {1.0, 0.0, 0.0}, {});
  BroadcastScheme restricted(4);
  restricted.add(0, 1, 1.0);
  restricted.add(1, 2, 1.0);
  const RepairResult repair = repair_scheme(survivors, restricted, 1.0);
  EXPECT_DOUBLE_EQ(repair.added_rate, 0.0);
  EXPECT_TRUE(repair.scheme.validate(survivors).empty());
  EXPECT_DOUBLE_EQ(repair.throughput, 0.0);  // node 3 is unreachable
}

TEST(RepairScheme, SurvivesDepartureOfHighestBandwidthRelay) {
  // Node 1 is the dominant open relay; its departure orphans most of the
  // overlay. Source slack plus the remaining opens must re-feed everyone.
  const Instance platform(20.0, {12.0, 6.0, 6.0}, {3.0, 3.0});
  const AcyclicSolution solution = solve_acyclic(platform);
  ASSERT_GT(solution.throughput, 0.0);
  ASSERT_GT(solution.scheme.out_rate(1), 0.0);  // it really relays

  const std::vector<int> departed{1};
  const Instance survivors = sim::remove_nodes(platform, departed);
  const BroadcastScheme restricted =
      sim::restrict_scheme(solution.scheme, departed);
  const RepairResult repair =
      repair_scheme(survivors, restricted, solution.throughput);
  EXPECT_TRUE(repair.scheme.validate(survivors).empty());
  EXPECT_TRUE(repair.scheme.is_acyclic());
  EXPECT_GE(repair.throughput, flow::scheme_throughput(restricted) - 1e-9);
  EXPECT_GT(repair.added_rate, 0.0);  // the orphans were actually patched
}

TEST(RepairScheme, CyclicOverlayPassesThroughUnpatched) {
  // session.hpp documents cyclic overlays as unpatched: the repair must
  // return the scheme bit-for-bit and still measure its throughput.
  const Instance survivors(2.0, {2.0, 2.0}, {});
  BroadcastScheme cyclic(3);
  cyclic.add(0, 1, 1.0);
  cyclic.add(1, 2, 1.0);
  cyclic.add(2, 1, 0.5);  // closes the 1 <-> 2 cycle
  ASSERT_FALSE(cyclic.is_acyclic());

  const RepairResult repair = repair_scheme(survivors, cyclic, 2.0);
  EXPECT_DOUBLE_EQ(repair.added_rate, 0.0);
  EXPECT_EQ(repair.scheme.edge_count(), cyclic.edge_count());
  for (int i = 0; i < cyclic.num_nodes(); ++i) {
    for (const auto& [to, rate] : cyclic.out_edges(i)) {
      EXPECT_DOUBLE_EQ(repair.scheme.rate(i, to), rate);
    }
  }
  EXPECT_NEAR(repair.throughput, flow::scheme_throughput(cyclic), 1e-12);
}

TEST(RepairScheme, TrimMakesReducedTargetsFeasible) {
  bmp::util::Xoshiro256 rng(33);
  int repaired_to_target = 0;
  for (int rep = 0; rep < 8; ++rep) {
    const Instance platform = bmp::testing::random_instance(rng, 14, 7);
    const AcyclicSolution solution = solve_acyclic(platform);
    if (solution.throughput <= 0.0) continue;
    const std::vector<int> departed{2};
    const Instance survivors = sim::remove_nodes(platform, departed);
    const BroadcastScheme restricted =
        sim::restrict_scheme(solution.scheme, departed);
    const double target = 0.9 * solution.throughput;
    const RepairResult repair = repair_scheme(survivors, restricted, target);
    EXPECT_TRUE(repair.scheme.validate(survivors).empty());
    if (repair.throughput >= target - 1e-6) ++repaired_to_target;
  }
  // One small departure should nearly always be absorbable at 90%.
  EXPECT_GE(repaired_to_target, 6);
}

// ------------------------------------- repair_scheme vs. its reference

// The repair as it stood before its passes learned to skip work (one
// in_rate scan per node, a full-graph trim scan, a reroute that tried
// every guarded sender and ran is_acyclic() after each tentative swap).
// Kept verbatim as the oracle the optimised repair must match bit for bit.
RepairResult reference_repair_scheme(const Instance& survivors,
                                     const BroadcastScheme& restricted,
                                     double target_rate,
                                     flow::Verifier* verifier = nullptr) {
  if (restricted.num_nodes() != survivors.size()) {
    throw std::invalid_argument("repair_scheme: instance/scheme size mismatch");
  }
  RepairResult result{restricted, 0.0, 0.0};
  BroadcastScheme& scheme = result.scheme;
  const int num_nodes = scheme.num_nodes();
  if (scheme.is_acyclic() && target_rate > 0.0 && num_nodes > 1) {
    const double tol = 1e-9 * std::max(1.0, target_rate);
    // Patch each node's inflow up to target_rate. Any sender works as long
    // as the overlay stays a DAG — i.e. the sender is not a *descendant* of
    // the receiver in the current (partially patched) overlay. Acyclicity
    // plus inflow >= tau everywhere is sufficient for throughput tau: for
    // any source/j cut, the topologically first node outside the cut has
    // all its in-edges crossing it, so min-cut(0 -> j) >= tau. The final
    // rate is re-verified by max-flow below either way.
    std::vector<double> out(static_cast<std::size_t>(num_nodes), 0.0);
    std::vector<double> in(static_cast<std::size_t>(num_nodes), 0.0);
    for (int i = 0; i < num_nodes; ++i) {
      out[static_cast<std::size_t>(i)] = scheme.out_rate(i);
      in[static_cast<std::size_t>(i)] = scheme.in_rate(i);
    }
    std::vector<char> blocked(static_cast<std::size_t>(num_nodes), 0);
    std::vector<int> stack;
    // Conservative sender preference (the paper's Lemma 4.3 principle):
    // guarded upload cannot reach guarded receivers, so open receivers
    // drain guarded senders first, keeping source + open upload for the
    // guarded nodes that have no alternative. Guarded receivers are
    // patched first for the same reason.
    std::vector<int> receivers;
    receivers.reserve(static_cast<std::size_t>(num_nodes - 1));
    for (const bool guarded : {true, false}) {
      for (int i = 1; i < num_nodes; ++i) {
        if (survivors.is_guarded(i) == guarded) receivers.push_back(i);
      }
    }
    std::vector<int> sender_order = receivers;
    sender_order.push_back(0);
    // Dust consolidation: an edge carrying under 2% of the target is
    // scheduling residue — in a chunk-level execution one transmission on
    // it takes dozens of chunk periods, squatting receiver window slots
    // and taking rare chunks hostage. Drop such edges outright; the patch
    // pass below re-sources the freed inflow from senders with real
    // residual capacity, as few, fat edges.
    const double dust = 0.02 * target_rate;
    std::vector<std::tuple<int, int, double>> dust_edges;
    for (int sender = 0; sender < num_nodes; ++sender) {
      for (const auto& [to, rate] : scheme.out_edges(sender)) {
        if (rate > tol && rate < dust) dust_edges.emplace_back(sender, to, rate);
      }
    }
    for (const auto& [sender, to, rate] : dust_edges) {
      scheme.add(sender, to, -rate);
      out[static_cast<std::size_t>(sender)] -= rate;
      in[static_cast<std::size_t>(to)] -= rate;
    }
    // Trim pass: when repairing toward a *reduced* target, survivors still
    // fed at the old (higher) design rate hold upload hostage. Cut their
    // inflow down to the target, releasing open/source upload first — it
    // is the only class guarded receivers can draw from. Within a class,
    // cut the *smallest* edges first: the receiver's main arteries survive
    // repeated repairs untouched (a live stream keeps its in-flight pipes)
    // and residue trickle edges are garbage-collected before real ones.
    std::vector<std::pair<double, int>> cuttable;
    for (int receiver = 1; receiver < num_nodes; ++receiver) {
      double excess = in[static_cast<std::size_t>(receiver)] - target_rate;
      if (excess <= tol) continue;
      for (int cls = 0; cls < 2 && excess > tol; ++cls) {
        cuttable.clear();
        for (int sender = 0; sender < num_nodes; ++sender) {
          const bool sender_guarded = survivors.is_guarded(sender);
          if ((cls == 0) == sender_guarded) continue;  // open first, then guarded
          const double rate = scheme.rate(sender, receiver);
          if (rate > tol) cuttable.emplace_back(rate, sender);
        }
        std::sort(cuttable.begin(), cuttable.end());
        for (const auto& [rate, sender] : cuttable) {
          if (excess <= tol) break;
          const double cut = std::min(excess, rate);
          scheme.add(sender, receiver, -cut);
          out[static_cast<std::size_t>(sender)] -= cut;
          in[static_cast<std::size_t>(receiver)] -= cut;
          excess -= cut;
        }
      }
    }
    for (const int receiver : receivers) {
      double deficit = target_rate - in[static_cast<std::size_t>(receiver)];
      if (deficit <= tol) continue;
      // Senders reachable *from* the receiver would close a cycle.
      std::fill(blocked.begin(), blocked.end(), 0);
      blocked[static_cast<std::size_t>(receiver)] = 1;
      stack.assign(1, receiver);
      while (!stack.empty()) {
        const int v = stack.back();
        stack.pop_back();
        for (const auto& [to, rate] : scheme.out_edges(v)) {
          (void)rate;
          if (!blocked[static_cast<std::size_t>(to)]) {
            blocked[static_cast<std::size_t>(to)] = 1;
            stack.push_back(to);
          }
        }
      }
      for (const int sender : sender_order) {
        if (deficit <= tol) break;
        if (blocked[static_cast<std::size_t>(sender)]) continue;
        if (survivors.is_guarded(sender) && survivors.is_guarded(receiver)) {
          continue;
        }
        const double residual =
            survivors.b(sender) - out[static_cast<std::size_t>(sender)];
        if (residual <= tol) continue;
        const double take = std::min(deficit, residual);
        scheme.add(sender, receiver, take);
        out[static_cast<std::size_t>(sender)] += take;
        in[static_cast<std::size_t>(receiver)] += take;
        result.added_rate += take;
        deficit -= take;
      }
    }
    // Reroute pass for guarded receivers the direct patch could not fill:
    // source/open upload may be fully committed to *open* receivers that
    // idle guarded upload could serve instead. Swap such an edge over
    // (guarded g takes the open receiver x, open sender s turns to the
    // guarded receiver) — the conservative exchange of Lemma 4.3. Each
    // swap is applied tentatively and reverted if it would close a cycle.
    for (const int receiver : receivers) {
      if (!survivors.is_guarded(receiver)) break;  // guardeds lead the list
      double deficit = target_rate - in[static_cast<std::size_t>(receiver)];
      if (deficit <= tol) continue;
      for (const int s : sender_order) {
        if (deficit <= tol) break;
        if (survivors.is_guarded(s)) continue;  // need an open/source sender
        const std::vector<std::pair<int, double>> edges(
            scheme.out_edges(s).begin(), scheme.out_edges(s).end());
        for (const auto& [x, rate_sx] : edges) {
          if (deficit <= tol) break;
          if (x == receiver || survivors.is_guarded(x)) continue;
          double movable = std::min(deficit, rate_sx);
          for (const int g : sender_order) {
            if (movable <= tol || deficit <= tol) break;
            if (!survivors.is_guarded(g) || g == x) continue;
            const double residual_g =
                survivors.b(g) - out[static_cast<std::size_t>(g)];
            if (residual_g <= tol) continue;
            const double delta = std::min(movable, residual_g);
            scheme.add(g, x, delta);
            scheme.add(s, x, -delta);
            scheme.add(s, receiver, delta);
            if (!scheme.is_acyclic()) {
              scheme.add(s, receiver, -delta);
              scheme.add(s, x, delta);
              scheme.add(g, x, -delta);
              continue;
            }
            out[static_cast<std::size_t>(g)] += delta;
            in[static_cast<std::size_t>(receiver)] += delta;
            result.added_rate += delta;
            deficit -= delta;
            movable -= delta;
          }
        }
      }
    }
  }
  if (num_nodes <= 1) {
    result.throughput = 0.0;
  } else if (verifier != nullptr) {
    result.throughput = verifier->verify(scheme).throughput;
  } else {
    result.throughput = flow::scheme_throughput(scheme);
  }
  return result;
}

std::uint64_t bits(double value) {
  std::uint64_t out = 0;
  std::memcpy(&out, &value, sizeof out);
  return out;
}

TEST(RepairScheme, RejectedSwapDropsARoundedAwayEdgeLikeTheReference) {
  // Guarded receiver 4 is short 0.5 and only guarded 3 has spare upload.
  // Every swap closes a cycle (4 reaches the open sender 1, and 1 reaches
  // 3), so each is applied and reverted; the revert rounds 3's 1e-12 edge
  // to 2 away while the cycle tests keep reading cached reachability.
  const Instance survivors(1.0, {2.0, 0.0}, {1.0, 0.5});
  BroadcastScheme restricted(5);
  restricted.add(0, 4, 0.5);
  restricted.add(0, 1, 0.5);
  restricted.add(4, 1, 0.5);
  restricted.add(1, 2, 1.0);
  restricted.add(1, 3, 1.0);
  restricted.add(3, 2, 1e-12);
  const RepairResult want = reference_repair_scheme(survivors, restricted, 1.0);
  const RepairResult got = repair_scheme(survivors, restricted, 1.0);
  EXPECT_EQ(want.scheme.rate(3, 2), 0.0);
  EXPECT_EQ(bits(got.added_rate), bits(want.added_rate));
  EXPECT_EQ(bits(got.throughput), bits(want.throughput));
  ASSERT_EQ(got.scheme.edge_count(), want.scheme.edge_count());
  for (int i = 0; i < want.scheme.num_nodes(); ++i) {
    for (const auto& [to, rate] : want.scheme.out_edges(i)) {
      EXPECT_EQ(bits(got.scheme.rate(i, to)), bits(rate))
          << "edge " << i << " -> " << to;
    }
  }
}

TEST(RepairScheme, MatchesReferenceBitForBit) {
  int repairs = 0;
  int patched = 0;
  for (const int size : {50, 100, 200, 400}) {
    for (const double p_open : {0.3, 0.54, 0.78, 1.0}) {
      for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        bmp::util::Xoshiro256 rng(seed);
        const Instance platform = bmp::gen::random_instance(
            {size, p_open, bmp::gen::Dist::kUnif100}, rng);
        const PlanResponse plan = Planner::plan_uncached(
            platform, kSessionAlgorithm, kSessionMaxOutDegree);
        if (plan.throughput <= 0.0) continue;
        std::vector<int> departed;
        const int leaving = 1 + static_cast<int>(rng.below(3));
        while (static_cast<int>(departed.size()) < leaving) {
          const int id = 1 + static_cast<int>(rng.below(
                                 static_cast<std::size_t>(platform.size() - 1)));
          if (std::find(departed.begin(), departed.end(), id) ==
              departed.end()) {
            departed.push_back(id);
          }
        }
        const Instance survivors = sim::remove_nodes(platform, departed);
        const BroadcastScheme restricted =
            sim::restrict_scheme(*plan.scheme, departed);
        for (const double fraction : {1.0, 0.95, 0.9, 0.7}) {
          const double target = fraction * plan.throughput;
          const RepairResult want =
              reference_repair_scheme(survivors, restricted, target);
          const RepairResult got = repair_scheme(survivors, restricted, target);
          SCOPED_TRACE(::testing::Message()
                       << "n=" << size << " p_open=" << p_open
                       << " seed=" << seed << " target=" << fraction);
          ++repairs;
          patched += want.added_rate > 0.0 ? 1 : 0;
          ASSERT_EQ(bits(got.added_rate), bits(want.added_rate));
          ASSERT_EQ(bits(got.throughput), bits(want.throughput));
          ASSERT_EQ(got.scheme.edge_count(), want.scheme.edge_count());
          for (int i = 0; i < want.scheme.num_nodes(); ++i) {
            ASSERT_EQ(got.scheme.out_degree(i), want.scheme.out_degree(i));
            for (const auto& [to, rate] : want.scheme.out_edges(i)) {
              ASSERT_EQ(bits(got.scheme.rate(i, to)), bits(rate))
                  << "edge " << i << " -> " << to;
            }
          }
        }
      }
    }
  }
  EXPECT_GE(repairs, 1000);
  EXPECT_GT(patched, repairs / 2);
}

}  // namespace
}  // namespace bmp::engine
