// Max-flow substrate tests: hand-checked graphs, reset semantics, and
// randomized cross-checks of scheme_throughput against flow conservation
// cuts.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "bmp/core/scheme.hpp"
#include "bmp/flow/maxflow.hpp"
#include "test_helpers.hpp"

namespace bmp::flow {
namespace {

TEST(MaxFlow, SingleEdge) {
  MaxFlowGraph g(2);
  g.add_edge(0, 1, 3.5);
  EXPECT_DOUBLE_EQ(g.max_flow(0, 1), 3.5);
}

TEST(MaxFlow, SeriesTakesMinimum) {
  MaxFlowGraph g(3);
  g.add_edge(0, 1, 5.0);
  g.add_edge(1, 2, 2.0);
  EXPECT_DOUBLE_EQ(g.max_flow(0, 2), 2.0);
}

TEST(MaxFlow, ParallelPathsAdd) {
  MaxFlowGraph g(4);
  g.add_edge(0, 1, 3.0);
  g.add_edge(1, 3, 3.0);
  g.add_edge(0, 2, 4.0);
  g.add_edge(2, 3, 2.0);
  EXPECT_DOUBLE_EQ(g.max_flow(0, 3), 5.0);
}

TEST(MaxFlow, ClassicCLRSExample) {
  // CLRS figure 26.6 instance, max flow 23.
  MaxFlowGraph g(6);
  g.add_edge(0, 1, 16);
  g.add_edge(0, 2, 13);
  g.add_edge(1, 2, 10);
  g.add_edge(2, 1, 4);
  g.add_edge(1, 3, 12);
  g.add_edge(3, 2, 9);
  g.add_edge(2, 4, 14);
  g.add_edge(4, 3, 7);
  g.add_edge(3, 5, 20);
  g.add_edge(4, 5, 4);
  EXPECT_DOUBLE_EQ(g.max_flow(0, 5), 23.0);
}

TEST(MaxFlow, ResetRestoresCapacities) {
  MaxFlowGraph g(3);
  g.add_edge(0, 1, 5.0);
  g.add_edge(1, 2, 2.0);
  EXPECT_DOUBLE_EQ(g.max_flow(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(g.max_flow(0, 2), 0.0);  // residuals consumed
  g.reset();
  EXPECT_DOUBLE_EQ(g.max_flow(0, 2), 2.0);
}

TEST(MaxFlow, FlowOnReportsPerEdgeFlow) {
  MaxFlowGraph g(3);
  const int e01 = g.add_edge(0, 1, 5.0);
  const int e12 = g.add_edge(1, 2, 2.0);
  g.max_flow(0, 2);
  EXPECT_DOUBLE_EQ(g.flow_on(e01), 2.0);
  EXPECT_DOUBLE_EQ(g.flow_on(e12), 2.0);
}

TEST(MaxFlow, RejectsBadInput) {
  MaxFlowGraph g(2);
  EXPECT_THROW(g.add_edge(0, 5, 1.0), std::out_of_range);
  EXPECT_THROW(g.add_edge(0, 1, -1.0), std::invalid_argument);
  EXPECT_THROW(MaxFlowGraph(0), std::invalid_argument);
}

TEST(MaxFlow, DisconnectedSinkIsZero) {
  MaxFlowGraph g(3);
  g.add_edge(0, 1, 1.0);
  EXPECT_DOUBLE_EQ(g.max_flow(0, 2), 0.0);
}

TEST(MaxFlow, RejectsNonFiniteCapacities) {
  // NaN passes a plain "< 0" check; it must never reach the excess
  // arithmetic of either solver.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  MaxFlowGraph g(2);
  EXPECT_THROW(g.add_edge(0, 1, nan), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, inf), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, -inf), std::invalid_argument);
  EXPECT_EQ(g.num_edges(), 0);
  const int e01 = g.add_edge(0, 1, 2.0);
  EXPECT_THROW(g.set_capacity(e01, nan), std::invalid_argument);
  EXPECT_THROW(g.set_capacity(e01, inf), std::invalid_argument);
  EXPECT_DOUBLE_EQ(g.max_flow(0, 1), 2.0);
}

TEST(MaxFlow, RootedMinCutOnHandCheckedGraphs) {
  // CLRS 26.6 rooted at 0: the per-sink max flows to nodes 1..5 are 20,
  // 29, 19, 14 and 23, so node 4's lone in-arc is the rooted minimum.
  MaxFlowGraph clrs(6);
  clrs.add_edge(0, 1, 16);
  clrs.add_edge(0, 2, 13);
  clrs.add_edge(1, 2, 10);
  clrs.add_edge(2, 1, 4);
  clrs.add_edge(1, 3, 12);
  clrs.add_edge(3, 2, 9);
  clrs.add_edge(2, 4, 14);
  clrs.add_edge(4, 3, 7);
  clrs.add_edge(3, 5, 20);
  clrs.add_edge(4, 5, 4);
  EXPECT_DOUBLE_EQ(clrs.rooted_min_cut(0), 14.0);
  // Runs on construction capacities: a second call gives the same value.
  EXPECT_DOUBLE_EQ(clrs.rooted_min_cut(0), 14.0);
  EXPECT_GT(clrs.pushes(), 0u);

  MaxFlowGraph single(1);
  EXPECT_EQ(single.rooted_min_cut(0), std::numeric_limits<double>::infinity());
  MaxFlowGraph unreachable(3);
  unreachable.add_edge(0, 1, 1.0);
  unreachable.add_edge(2, 1, 5.0);
  EXPECT_DOUBLE_EQ(unreachable.rooted_min_cut(0), 0.0);
  EXPECT_THROW(unreachable.rooted_min_cut(3), std::out_of_range);
}

TEST(MaxFlow, SetCapacityRetargetsAnExistingEdge) {
  MaxFlowGraph g(3);
  const int e01 = g.add_edge(0, 1, 5.0);
  g.add_edge(1, 2, 2.0);
  EXPECT_DOUBLE_EQ(g.max_flow(0, 2), 2.0);
  g.set_capacity(e01, 1.0);  // now the first hop binds
  g.reset();
  EXPECT_DOUBLE_EQ(g.max_flow(0, 2), 1.0);
  g.set_capacity(e01, 10.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.max_flow(0, 2), 2.0);
  EXPECT_THROW(g.set_capacity(e01 + 1, 1.0), std::out_of_range);  // reverse id
  EXPECT_THROW(g.set_capacity(e01, -1.0), std::invalid_argument);
}

TEST(MaxFlow, AssignReusesTheSolverAcrossGraphs) {
  MaxFlowGraph g(2);
  g.add_edge(0, 1, 3.5);
  EXPECT_DOUBLE_EQ(g.max_flow(0, 1), 3.5);
  g.assign(3);  // drop edges, keep buffers
  EXPECT_EQ(g.num_edges(), 0);
  g.add_edge(0, 1, 5.0);
  g.add_edge(1, 2, 2.0);
  EXPECT_DOUBLE_EQ(g.max_flow(0, 2), 2.0);
}

TEST(MaxFlow, AddEdgeAfterSolveRebuildsTheIndex) {
  MaxFlowGraph g(3);
  g.add_edge(0, 1, 1.0);
  EXPECT_DOUBLE_EQ(g.max_flow(0, 2), 0.0);
  g.add_edge(1, 2, 1.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.max_flow(0, 2), 1.0);
}

TEST(SchemeThroughput, OracleAgreesWithTieredPath) {
  BroadcastScheme s(4);
  s.add(0, 1, 3.0);
  s.add(1, 2, 2.0);
  s.add(2, 3, 1.0);
  EXPECT_DOUBLE_EQ(scheme_throughput_oracle(s), scheme_throughput(s));
}

TEST(SchemeThroughput, StarScheme) {
  // Source splits b0=6 across 3 nodes: throughput = 2 each.
  BroadcastScheme s(4);
  s.add(0, 1, 2.0);
  s.add(0, 2, 2.0);
  s.add(0, 3, 2.0);
  EXPECT_DOUBLE_EQ(scheme_throughput(s), 2.0);
}

TEST(SchemeThroughput, ChainScheme) {
  BroadcastScheme s(4);
  s.add(0, 1, 3.0);
  s.add(1, 2, 2.0);
  s.add(2, 3, 1.0);
  EXPECT_DOUBLE_EQ(scheme_throughput(s), 1.0);
  EXPECT_DOUBLE_EQ(scheme_max_flow_to(s, 1), 3.0);
  EXPECT_DOUBLE_EQ(scheme_max_flow_to(s, 2), 2.0);
}

TEST(SchemeThroughput, Fig1StyleOptimalSchemeAchievesClosedForm) {
  // A cyclic scheme of throughput 4.4 on the Fig. 1 instance (the closed
  // form min(6, 16/3, 22/5)): the instance is tight, so every node spends
  // its full upload and every node receives exactly 4.4.
  BroadcastScheme s(6);
  // source C0 (b=6)
  s.add(0, 3, 3.0);
  s.add(0, 4, 0.6);
  s.add(0, 5, 0.6);
  s.add(0, 1, 0.9);
  s.add(0, 2, 0.9);
  // open C1 (b=5)
  s.add(1, 3, 1.4);
  s.add(1, 4, 1.9);
  s.add(1, 5, 1.7);
  // open C2 (b=5)
  s.add(2, 4, 1.9);
  s.add(2, 5, 2.1);
  s.add(2, 1, 1.0);
  // guarded nodes feed open nodes only
  s.add(3, 1, 2.5);
  s.add(3, 2, 1.5);
  s.add(4, 2, 1.0);
  s.add(5, 2, 1.0);
  ASSERT_LE(s.max_inflow_deviation(4.4), 1e-9);
  ASSERT_TRUE(s.validate(testing::fig1_instance()).empty());
  EXPECT_FALSE(s.is_acyclic());
  EXPECT_NEAR(scheme_throughput(s), 4.4, 1e-9);
}

TEST(SchemeThroughput, UniformInflowDagEqualsT) {
  // For the DAG schemes our algorithms emit, inflow T at every node implies
  // throughput exactly T; fuzz this against random valid words.
  util::Xoshiro256 rng(515);
  for (int rep = 0; rep < 30; ++rep) {
    const int n = 1 + static_cast<int>(rng.below(8));
    const Instance inst = bmp::testing::random_instance(rng, n, 0);
    BroadcastScheme s(inst.size());
    // Simple forward waterfall at T = acyclic optimum.
    double T = inst.b(0);
    for (int k = 0; k < n; ++k) {
      T = std::min(T, inst.prefix_sum(k) / (k + 1));
    }
    int sender = 0;
    double left = inst.b(0);
    for (int r = 1; r <= n; ++r) {
      double need = T;
      while (need > 1e-12) {
        if (left <= 1e-12) {
          ++sender;
          left = inst.b(sender);
          continue;
        }
        const double take = std::min(left, need);
        if (sender != r) s.add(sender, r, take);
        left -= take;
        need -= take;
      }
    }
    EXPECT_NEAR(scheme_throughput(s), T, 1e-6);
  }
}

}  // namespace
}  // namespace bmp::flow
