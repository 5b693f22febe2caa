// Tests for the extension modules: churn experiment (§VII), download-cap
// throughput (beyond the paper's "downloads are large enough" assumption),
// platform/scheme serialization, and exact acyclic claims at scale.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "bmp/core/acyclic_search.hpp"
#include "bmp/core/bounds.hpp"
#include "bmp/flow/maxflow.hpp"
#include "bmp/flow/node_caps.hpp"
#include "bmp/flow/verify.hpp"
#include "bmp/gen/generator.hpp"
#include "bmp/net/instance_io.hpp"
#include "bmp/sim/churn.hpp"
#include "bmp/trees/arborescence.hpp"
#include "test_helpers.hpp"

namespace bmp {
namespace {

// ---------- churn ----------

TEST(Churn, RemoveNodesKeepsClassesAndSource) {
  const Instance inst(6.0, {5.0, 4.0, 3.0}, {2.0, 1.0});
  const Instance survivors = sim::remove_nodes(inst, {2, 4});  // open 4.0, guarded 2.0
  EXPECT_DOUBLE_EQ(survivors.b(0), 6.0);
  EXPECT_EQ(survivors.n(), 2);
  EXPECT_EQ(survivors.m(), 1);
  EXPECT_DOUBLE_EQ(survivors.b(1), 5.0);
  EXPECT_DOUBLE_EQ(survivors.b(2), 3.0);
  EXPECT_DOUBLE_EQ(survivors.b(3), 1.0);
  EXPECT_THROW(sim::remove_nodes(inst, {0}), std::invalid_argument);
  EXPECT_THROW(sim::remove_nodes(inst, {9}), std::invalid_argument);
}

TEST(Churn, RestrictSchemeDropsAndRemaps) {
  BroadcastScheme s(4);
  s.add(0, 1, 1.0);
  s.add(1, 2, 1.0);
  s.add(1, 3, 1.0);
  const BroadcastScheme r = sim::restrict_scheme(s, {2});
  EXPECT_EQ(r.num_nodes(), 3);
  EXPECT_DOUBLE_EQ(r.rate(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(r.rate(1, 2), 1.0);  // old node 3 -> new id 2
  EXPECT_EQ(r.edge_count(), 2);
}

TEST(Churn, ExperimentShowsDegradationAndRecovery) {
  const Instance inst(
      1.0, std::vector<double>(10, 1.2), std::vector<double>(10, 0.7));
  const sim::ChurnResult r = sim::churn_experiment(inst, {0.3, 0.8, 300.0, 5});
  EXPECT_GT(r.design_rate, 0.0);
  EXPECT_EQ(r.departed, 6);
  EXPECT_EQ(r.survivors, 14);
  // Healthy before the failure.
  EXPECT_GT(r.pre_fail_min_rate, 0.85 * 0.8 * r.design_rate);
  // The broken overlay starves someone (the paper: "probably not resilient
  // to churn").
  EXPECT_LT(r.broken_min_rate, 0.5 * r.pre_fail_min_rate);
  // Replanning on survivors restores a healthy stream.
  EXPECT_GT(r.replanned_rate, 0.0);
  EXPECT_GT(r.replanned_min_rate, 0.85 * 0.8 * r.replanned_rate);
}

TEST(Churn, ValidatesFraction) {
  const Instance inst(1.0, {1.0, 1.0}, {});
  EXPECT_THROW(sim::churn_experiment(inst, {1.5, 0.8, 100.0, 1}),
               std::invalid_argument);
}

// ---------- download caps ----------

TEST(NodeCaps, ValidateFlagsViolations) {
  BroadcastScheme s(3);
  s.add(0, 1, 3.0);
  s.add(0, 2, 1.0);
  const std::vector<double> caps{0.0, 2.0, 2.0};
  const auto issues = flow::validate_download_caps(s, caps);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].find("node 1"), std::string::npos);
  EXPECT_THROW(flow::validate_download_caps(s, {1.0}), std::invalid_argument);
}

TEST(NodeCaps, ThroughputWithGenerousCapsMatchesPlain) {
  util::Xoshiro256 rng(81);
  for (int rep = 0; rep < 30; ++rep) {
    const int n = 1 + static_cast<int>(rng.below(6));
    const int m = static_cast<int>(rng.below(6));
    const Instance inst = testing::random_instance(rng, n, m);
    const AcyclicSolution sol = solve_acyclic(inst);
    if (sol.throughput <= 1e-9) continue;
    const std::vector<double> caps(static_cast<std::size_t>(inst.size()), 1e9);
    EXPECT_NEAR(
        flow::scheme_throughput_with_download_caps(sol.scheme, caps),
        flow::scheme_throughput(sol.scheme), 1e-6);
  }
}

TEST(NodeCaps, TightCapBindsThroughput) {
  BroadcastScheme s(3);
  s.add(0, 1, 2.0);
  s.add(0, 2, 1.0);
  s.add(1, 2, 1.0);
  // Unlimited: node 2 receives 2.0 total.
  EXPECT_NEAR(flow::scheme_throughput_with_download_caps(s, {0, 9, 9}), 2.0,
              1e-9);
  // Download cap 1.5 at node 2 binds it.
  EXPECT_NEAR(flow::scheme_throughput_with_download_caps(s, {0, 9, 1.5}), 1.5,
              1e-9);
  // Capping the relay node 1 binds twice: node 1 itself can only receive
  // 0.5 (throughput is the min over all sinks), and the path through it to
  // node 2 shrinks too.
  EXPECT_NEAR(flow::scheme_throughput_with_download_caps(s, {0, 0.5, 9}), 0.5,
              1e-9);
}

/// The full node split, every node included: v_in = v, v_out = v + N, the
/// source's own cap edge unbounded, and one Dinic solve per v_out sink.
double per_sink_split_dinic(const BroadcastScheme& scheme,
                            const std::vector<double>& caps) {
  const int N = scheme.num_nodes();
  const double unbounded = scheme.total_rate() + 1.0;
  flow::MaxFlowGraph graph(2 * N);
  for (int v = 0; v < N; ++v) {
    graph.add_edge(v, v + N,
                   v == 0 ? unbounded
                          : std::min(caps[static_cast<std::size_t>(v)], unbounded));
    for (const auto& [to, rate] : scheme.out_edges(v)) {
      graph.add_edge(v + N, to, rate);
    }
  }
  double best = std::numeric_limits<double>::infinity();
  for (int v = 1; v < N; ++v) {
    graph.reset();
    best = std::min(best, graph.max_flow(N, v + N));
  }
  return best;
}

TEST(NodeCaps, ProbeMatchesPerSinkDinicOnTheFullSplit) {
  // Random cyclic schemes (edges into the source included) under random
  // caps, some binding and some not: the probe's one rooted min cut on
  // the compact split must equal the per-sink sweep on the full split.
  util::Xoshiro256 rng(83);
  for (int rep = 0; rep < 300; ++rep) {
    const int N = 2 + static_cast<int>(rng.below(14));
    BroadcastScheme scheme(N);
    for (int e = 0; e < 3 * N; ++e) {
      const int from = static_cast<int>(rng.below(static_cast<std::uint64_t>(N)));
      const int to = static_cast<int>(rng.below(static_cast<std::uint64_t>(N)));
      if (from != to) scheme.add(from, to, rng.uniform(0.1, 5.0));
    }
    std::vector<double> caps(static_cast<std::size_t>(N));
    for (double& cap : caps) cap = rng.uniform(0.05, 12.0);
    const double reference = per_sink_split_dinic(scheme, caps);
    EXPECT_NEAR(flow::scheme_throughput_with_download_caps(scheme, caps),
                reference, 1e-9 * std::max(1.0, reference))
        << "rep " << rep;
  }
}

// For schemes with uniform inflow T, download caps of exactly T suffice:
// quantifies the paper's "input bandwidth is large enough" assumption.
TEST(NodeCaps, UniformCapEqualToTSuffices) {
  util::Xoshiro256 rng(82);
  for (int rep = 0; rep < 25; ++rep) {
    const int n = 1 + static_cast<int>(rng.below(6));
    const int m = static_cast<int>(rng.below(5));
    const Instance inst = testing::random_instance(rng, n, m);
    const AcyclicSolution sol = solve_acyclic(inst);
    if (sol.throughput <= 1e-6) continue;
    const double needed =
        flow::minimal_uniform_download_cap(sol.scheme, sol.throughput);
    EXPECT_LE(needed, sol.throughput * (1.0 + 1e-6));
    // And it cannot be less: any cap below T starves every node.
    EXPECT_GE(needed, sol.throughput * (1.0 - 1e-3));
  }
}

// ---------- platform / scheme IO ----------

TEST(InstanceIo, ParsePlatformWithLabelsAndComments) {
  const std::string text = R"(# test platform
source 24
open 20 relay-a
guarded 6 home   # NAT'd
open 12
)";
  const net::PlatformFile file = net::parse_platform_string(text);
  EXPECT_DOUBLE_EQ(file.instance.b(0), 24.0);
  EXPECT_EQ(file.instance.n(), 2);
  EXPECT_EQ(file.instance.m(), 1);
  ASSERT_EQ(file.labels.size(), 4u);
  EXPECT_EQ(file.labels[1], "relay-a");
  EXPECT_EQ(file.labels[2], "open2");
  EXPECT_EQ(file.labels[3], "home");
  // Labels are indexed by original id: sorted node 1 (bw 20) -> input 1.
  EXPECT_EQ(file.labels[static_cast<std::size_t>(file.instance.original_id(1))],
            "relay-a");
}

TEST(InstanceIo, ParseErrorsCarryLineNumbers) {
  EXPECT_THROW(net::parse_platform_string("open 5\n"), std::invalid_argument);
  EXPECT_THROW(net::parse_platform_string("source 5\nopen\n"),
               std::invalid_argument);
  EXPECT_THROW(net::parse_platform_string("source 5\nwat 3\n"),
               std::invalid_argument);
  EXPECT_THROW(net::parse_platform_string("source 5\nopen -2\n"),
               std::invalid_argument);
  EXPECT_THROW(net::parse_platform_string("source 5\nsource 6\n"),
               std::invalid_argument);
  // A suffix glued onto the bandwidth, or tokens past the optional name.
  const std::pair<const char*, const char*> cases[] = {
      {"source 5\nopen 5x\n", "line 2"},
      {"source 5\nopen 5 a b c\n", "line 2"},
      {"source 5x\nopen 5\n", "line 1"}};
  for (const auto& [text, line] : cases) {
    try {
      (void)net::parse_platform_string(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(line), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(net::parse_platform_string("source 5\nopen 5 x\n").labels[1], "x");
}

TEST(InstanceIo, PlatformRoundTrip) {
  const Instance inst = testing::fig1_instance();
  const net::PlatformFile round =
      net::parse_platform_string(net::serialize_platform(inst));
  ASSERT_EQ(round.instance.size(), inst.size());
  for (int i = 0; i < inst.size(); ++i) {
    EXPECT_DOUBLE_EQ(round.instance.b(i), inst.b(i));
    EXPECT_EQ(round.instance.is_guarded(i), inst.is_guarded(i));
  }
}

TEST(InstanceIo, SchemeRoundTrip) {
  const Instance inst = testing::fig1_instance();
  const AcyclicSolution sol = solve_acyclic(inst);
  const BroadcastScheme round = net::parse_scheme_string(
      net::serialize_scheme(sol.scheme), inst.size());
  EXPECT_EQ(round.edge_count(), sol.scheme.edge_count());
  for (int i = 0; i < inst.size(); ++i) {
    for (const auto& [to, r] : sol.scheme.out_edges(i)) {
      EXPECT_NEAR(round.rate(i, to), r, 1e-9);
    }
  }
}

TEST(InstanceIo, SchemeParseRejectsGarbage) {
  EXPECT_THROW(net::parse_scheme_string("0 oops 1.0\n", 3),
               std::invalid_argument);
  // Every rejection is std::invalid_argument naming the offending line:
  // glued suffixes, trailing tokens, and BroadcastScheme::add's own errors
  // (id out of range, self loop, negative rate).
  const std::pair<const char*, const char*> cases[] = {
      {"0 1 1\n0 1 1open0\n", "line 2"}, {"0 1 10 2 5.5\n", "line 1"},
      {"0 1 1\n0 3 1\n", "line 2"},      {"0 -1 1\n", "line 1"},
      {"# c\n1 1 2\n", "line 2"},         {"0 1 -1\n", "line 1"},
      {"0 1 2\n\n0 2 1x\n", "line 3"}};
  for (const auto& [text, line] : cases) {
    try {
      (void)net::parse_scheme_string(text, 3);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(line), std::string::npos)
          << e.what();
    }
  }
}

// ---------- exact claims at scale ----------

/// Plans `instance` with solve_acyclic and returns why the plan fails its
/// claim (empty when it holds): a throw, or a verified throughput more
/// than 1e-9 relative off the claimed one.
std::string claim_failure(const Instance& instance) {
  try {
    const AcyclicSolution sol = solve_acyclic(instance);
    flow::Verifier verifier;
    const double verified = verifier.verify(sol.scheme).throughput;
    const double gap = std::abs(verified - sol.throughput);
    if (gap > 1e-9 * sol.throughput) {
      return "gap " + std::to_string(gap / sol.throughput) + " relative";
    }
  } catch (const std::exception& error) {
    return error.what();
  }
  return {};
}

// perfbench plan_mix's acyclic platforms: 500-2000 peers, half guarded,
// Unif100 open and LogNormal1 guarded bandwidths, the source at the
// cyclic bound's fixed point. Seeds 34939 and 128424 once ran a pool dry.
TEST(ExactClaims, PlanMixPlatformsHoldTheirClaims) {
  std::vector<std::uint64_t> seeds{34939, 128424};
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) seeds.push_back(seed);
  int failures = 0;
  for (const std::uint64_t seed : seeds) {
    util::Xoshiro256 rng(seed);
    const int size = 500 + static_cast<int>(1500.0 * rng.uniform());
    const int guarded = size / 2;
    std::vector<double> open =
        gen::sample_many(gen::Dist::kUnif100, size - guarded, rng);
    std::vector<double> closed =
        gen::sample_many(gen::Dist::kLogNormal1, guarded, rng);
    const double source = fixed_point_source_bandwidth(open, closed);
    const std::string failure =
        claim_failure(Instance(source, std::move(open), std::move(closed)));
    if (!failure.empty() && ++failures <= 5) {
      ADD_FAILURE() << "seed " << seed << ": " << failure;
    }
  }
  EXPECT_EQ(failures, 0);
}

TEST(ExactClaims, LargeRandomPlatformsHoldTheirClaims) {
  for (const double p_open : {0.5, 1.0}) {
    for (const int size : {10000, 20000, 50000}) {
      for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        util::Xoshiro256 rng(seed);
        const Instance instance =
            gen::random_instance({size, p_open, gen::Dist::kUnif100}, rng);
        EXPECT_EQ(claim_failure(instance), "")
            << "p_open " << p_open << ", " << size << " peers, seed " << seed;
      }
    }
  }
}

// A node fed a hair short of the claim must not run the peeling dry.
TEST(ExactClaims, ThousandPeerPlansDecomposeIntoTrees) {
  for (const double p_open : {0.5, 1.0}) {
    for (const int size : {1000, 2000}) {
      for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        util::Xoshiro256 rng(seed);
        const Instance instance =
            gen::random_instance({size, p_open, gen::Dist::kUnif100}, rng);
        const AcyclicSolution sol = solve_acyclic(instance);
        std::string failure;
        try {
          const trees::Decomposition d =
              trees::decompose_acyclic(sol.scheme, sol.throughput);
          if (!trees::validate_decomposition(sol.scheme, d, sol.throughput)) {
            failure = "invalid decomposition";
          }
        } catch (const std::exception& error) {
          failure = error.what();
        }
        EXPECT_EQ(failure, "")
            << "p_open " << p_open << ", " << size << " peers, seed " << seed;
      }
    }
  }
}

}  // namespace
}  // namespace bmp
