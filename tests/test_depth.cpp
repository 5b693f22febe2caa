// Depth/delay metric tests (§VII future-work feature): depth analysis on
// hand-built and generated schemes, the feed-order variants of the word
// scheduler, and the depth-vs-degree tradeoff.
#include <gtest/gtest.h>

#include "bmp/core/acyclic_search.hpp"
#include "bmp/core/bounds.hpp"
#include "bmp/core/depth.hpp"
#include "bmp/core/word_schedule.hpp"
#include "bmp/flow/maxflow.hpp"
#include "test_helpers.hpp"

namespace bmp {
namespace {

TEST(Depth, ChainDepths) {
  BroadcastScheme s(4);
  s.add(0, 1, 1.0);
  s.add(1, 2, 1.0);
  s.add(2, 3, 1.0);
  const DepthReport r = analyze_depth(s);
  EXPECT_EQ(r.depth, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(r.max_depth, 3);
  EXPECT_DOUBLE_EQ(r.mean_depth, 2.0);
  EXPECT_DOUBLE_EQ(r.weighted_depth[3], 3.0);
}

TEST(Depth, WeightedDepthMixesPaths) {
  // Node 2: half its rate at depth 1 (from source), half at depth 2.
  BroadcastScheme s(3);
  s.add(0, 1, 1.0);
  s.add(0, 2, 0.5);
  s.add(1, 2, 0.5);
  const DepthReport r = analyze_depth(s);
  EXPECT_EQ(r.depth[2], 2);
  EXPECT_DOUBLE_EQ(r.weighted_depth[2], 1.5);
}

TEST(Depth, RejectsCyclicSchemes) {
  BroadcastScheme s(3);
  s.add(0, 1, 1.0);
  s.add(1, 2, 1.0);
  s.add(2, 1, 0.5);
  EXPECT_THROW(analyze_depth(s), std::invalid_argument);
}

TEST(Depth, AllFeedOrdersProduceValidSchemes) {
  util::Xoshiro256 rng(62);
  for (int rep = 0; rep < 60; ++rep) {
    const int n = 1 + static_cast<int>(rng.below(10));
    const int m = static_cast<int>(rng.below(10));
    const Instance inst = testing::random_instance(rng, n, m);
    const AcyclicSolution sol = solve_acyclic(inst);
    if (sol.throughput <= 1e-9) continue;
    for (const auto order : {FeedOrder::kEarliestFirst, FeedOrder::kLatestFirst,
                             FeedOrder::kShallowest}) {
      const BroadcastScheme s =
          build_scheme_from_word(inst, sol.word, sol.throughput, false, order)
              .scheme;
      EXPECT_TRUE(s.validate(inst).empty());
      EXPECT_TRUE(s.is_acyclic());
      EXPECT_LE(s.max_inflow_deviation(sol.throughput),
                1e-6 * std::max(1.0, sol.throughput));
    }
  }
}

TEST(Depth, ShallowestOrderNeverDeeperThanLatestFirst) {
  util::Xoshiro256 rng(63);
  int strictly_better = 0;
  for (int rep = 0; rep < 60; ++rep) {
    const int n = 2 + static_cast<int>(rng.below(12));
    const int m = static_cast<int>(rng.below(12));
    const Instance inst = testing::random_instance(rng, n, m);
    const AcyclicSolution sol = solve_acyclic(inst);
    if (sol.throughput <= 1e-9) continue;
    const auto depth_of = [&](FeedOrder order) {
      return analyze_depth(build_scheme_from_word(inst, sol.word,
                                                  sol.throughput, false, order)
                               .scheme)
          .max_depth;
    };
    const int shallow = depth_of(FeedOrder::kShallowest);
    const int latest = depth_of(FeedOrder::kLatestFirst);
    EXPECT_LE(shallow, latest);
    if (shallow < latest) ++strictly_better;
  }
  EXPECT_GT(strictly_better, 0) << "depth-greedy feeding should matter sometimes";
}

TEST(Depth, Fig5DepthValues) {
  const Instance inst = testing::fig1_instance();
  const WordSchedule ws = build_scheme_from_word(inst, make_word("GOGOG"), 4.0);
  const DepthReport r = analyze_depth(ws.scheme);
  // C3 <- C0 (1); C1 <- C3 (2); C4 <- {C0, C1} (3); C2 <- {C4, C1} (4);
  // C5 <- C2 (5).
  EXPECT_EQ(r.depth[3], 1);
  EXPECT_EQ(r.depth[1], 2);
  EXPECT_EQ(r.depth[4], 3);
  EXPECT_EQ(r.depth[2], 4);
  EXPECT_EQ(r.depth[5], 5);
}

}  // namespace
}  // namespace bmp
