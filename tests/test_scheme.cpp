// BroadcastScheme container tests: rate accumulation and removal, the
// zero-tolerance behavior that keeps float residue from inflating degrees,
// topology queries, validation and DOT export.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "bmp/core/scheme.hpp"
#include "test_helpers.hpp"

namespace bmp {
namespace {

TEST(Scheme, AddAccumulatesAndSubtracts) {
  BroadcastScheme s(3);
  s.add(0, 1, 1.5);
  s.add(0, 1, 0.5);
  EXPECT_DOUBLE_EQ(s.rate(0, 1), 2.0);
  s.add(0, 1, -0.5);
  EXPECT_DOUBLE_EQ(s.rate(0, 1), 1.5);
  EXPECT_EQ(s.edge_count(), 1);
}

TEST(Scheme, TinyResidueVanishesButTinyScalesWork) {
  BroadcastScheme s(3);
  s.add(0, 1, 1.0);
  s.add(0, 1, -1.0 + 1e-12);  // residue far below the update's magnitude
  EXPECT_DOUBLE_EQ(s.rate(0, 1), 0.0);
  EXPECT_EQ(s.out_degree(0), 0);
  // Tolerances are relative: a genuinely tiny-scale edge is preserved
  // (platforms measured in bit/s must work like Gbit/s ones).
  s.add(0, 2, 1e-12);
  EXPECT_EQ(s.edge_count(), 1);
  EXPECT_DOUBLE_EQ(s.rate(0, 2), 1e-12);
}

TEST(Scheme, RejectsBadEdges) {
  BroadcastScheme s(3);
  EXPECT_THROW(s.add(0, 0, 1.0), std::invalid_argument);   // self loop
  EXPECT_THROW(s.add(0, 5, 1.0), std::out_of_range);       // bad id
  EXPECT_THROW(s.add(-1, 1, 1.0), std::out_of_range);
  s.add(0, 1, 1.0);
  EXPECT_THROW(s.add(0, 1, -2.0), std::invalid_argument);  // below zero
  EXPECT_THROW(BroadcastScheme(0), std::invalid_argument);
}

TEST(Scheme, RejectsNonFiniteRates) {
  // NaN slips past a plain "< 0" check; no non-finite rate may reach the
  // max-flow excess arithmetic, neither on a new edge nor as an update.
  BroadcastScheme s(3);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(s.add(0, 1, nan), std::invalid_argument);
  EXPECT_THROW(s.add(0, 1, inf), std::invalid_argument);
  EXPECT_THROW(s.add(0, 1, -inf), std::invalid_argument);
  s.add(0, 1, 1.0);
  EXPECT_THROW(s.add(0, 1, nan), std::invalid_argument);
  EXPECT_THROW(s.add(0, 1, inf), std::invalid_argument);
  EXPECT_DOUBLE_EQ(s.rate(0, 1), 1.0);  // a rejected update changes nothing
  EXPECT_EQ(s.out_degree(0), 1);
}

TEST(Scheme, RatesAndDegrees) {
  BroadcastScheme s(4);
  s.add(0, 1, 2.0);
  s.add(0, 2, 3.0);
  s.add(1, 3, 1.0);
  s.add(2, 3, 1.0);
  EXPECT_DOUBLE_EQ(s.out_rate(0), 5.0);
  EXPECT_DOUBLE_EQ(s.in_rate(3), 2.0);
  EXPECT_EQ(s.out_degree(0), 2);
  EXPECT_EQ(s.in_degree(3), 2);
  EXPECT_EQ(s.max_out_degree(), 2);
  EXPECT_DOUBLE_EQ(s.total_rate(), 7.0);
}

TEST(Scheme, TopologicalOrderOnDag) {
  BroadcastScheme s(4);
  s.add(0, 2, 1.0);
  s.add(2, 1, 1.0);
  s.add(1, 3, 1.0);
  ASSERT_TRUE(s.is_acyclic());
  const std::vector<int> topo = s.topological_order();
  ASSERT_EQ(topo.size(), 4u);
  std::vector<int> pos(4);
  for (int p = 0; p < 4; ++p) pos[static_cast<std::size_t>(topo[static_cast<std::size_t>(p)])] = p;
  EXPECT_LT(pos[0], pos[2]);
  EXPECT_LT(pos[2], pos[1]);
  EXPECT_LT(pos[1], pos[3]);
}

TEST(Scheme, CycleDetection) {
  BroadcastScheme s(3);
  s.add(0, 1, 1.0);
  s.add(1, 2, 1.0);
  EXPECT_TRUE(s.is_acyclic());
  s.add(2, 1, 0.5);
  EXPECT_FALSE(s.is_acyclic());
  EXPECT_TRUE(s.topological_order().empty());
  // Removing the back edge restores acyclicity.
  s.add(2, 1, -0.5);
  EXPECT_TRUE(s.is_acyclic());
}

TEST(Scheme, ValidateBandwidthAndFirewall) {
  const Instance inst(2.0, {1.0}, {1.0, 1.0});
  BroadcastScheme s(inst.size());
  s.add(0, 2, 1.5);
  s.add(0, 3, 1.0);  // source over budget: 2.5 > 2.0
  s.add(2, 3, 0.5);  // guarded -> guarded
  const auto issues = s.validate(inst);
  ASSERT_EQ(issues.size(), 2u);
  EXPECT_NE(issues[0].find("bandwidth"), std::string::npos);
  EXPECT_NE(issues[1].find("firewall"), std::string::npos);
  // Mismatched sizes reported.
  BroadcastScheme wrong(2);
  EXPECT_EQ(wrong.validate(inst).size(), 1u);
}

TEST(Scheme, InflowDeviation) {
  BroadcastScheme s(3);
  s.add(0, 1, 2.0);
  s.add(0, 2, 1.5);
  EXPECT_DOUBLE_EQ(s.max_inflow_deviation(2.0), 0.5);
  EXPECT_DOUBLE_EQ(s.max_inflow_deviation(1.75), 0.25);
}

TEST(Scheme, InRatesMatchInRateBitForBit) {
  util::Xoshiro256 rng(5);
  for (int rep = 0; rep < 50; ++rep) {
    const int n = 2 + static_cast<int>(rng.below(60));
    BroadcastScheme s(n);
    const int edges = static_cast<int>(rng.below(static_cast<std::size_t>(4 * n)));
    for (int e = 0; e < edges; ++e) {
      const int from = static_cast<int>(rng.below(static_cast<std::size_t>(n)));
      const int to = static_cast<int>(rng.below(static_cast<std::size_t>(n)));
      if (from != to) s.add(from, to, rng.uniform(1e-3, 100.0));
    }
    const std::vector<double> in = s.in_rates();
    ASSERT_EQ(in.size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const double want = s.in_rate(i);
      EXPECT_EQ(std::memcmp(&in[static_cast<std::size_t>(i)], &want, sizeof want), 0)
          << "node " << i;
    }
  }
}

TEST(Scheme, RoundTripMatchesAddThenSubtractBitForBit) {
  util::Xoshiro256 rng(9);
  int residues = 0;
  for (int rep = 0; rep < 4000; ++rep) {
    const double size = rng.uniform(1e-3, 10.0);
    double delta = rng.below(2) != 0 ? size : -size;
    BroadcastScheme added(3);
    switch (rep % 4) {
      case 0: break;                                   // absent edge
      case 1: added.add(0, 1, size * 1e-13); break;    // rounds away
      case 2: added.add(0, 1, rng.uniform(1e-3, 10.0)); break;
      default:                                         // erased mid-trip
        added.add(0, 1, size);
        delta = -size;
        break;
    }
    const double before = added.rate(0, 1);
    BroadcastScheme tripped = added;
    bool added_threw = false;
    bool tripped_threw = false;
    try {
      added.add(0, 1, delta);
      added.add(0, 1, -delta);
    } catch (const std::invalid_argument&) {
      added_threw = true;
    }
    try {
      tripped.round_trip(0, 1, delta);
    } catch (const std::invalid_argument&) {
      tripped_threw = true;
    }
    ASSERT_EQ(tripped_threw, added_threw) << "rep " << rep;
    if (added_threw) continue;
    ASSERT_EQ(tripped.out_degree(0), added.out_degree(0)) << "rep " << rep;
    const double want = added.rate(0, 1);
    const double got = tripped.rate(0, 1);
    ASSERT_EQ(std::memcmp(&got, &want, sizeof want), 0) << "rep " << rep;
    residues += want != before ? 1 : 0;
  }
  EXPECT_GT(residues, 0);  // the round trip really is not the identity
}

TEST(Scheme, DotExportContainsEdges) {
  BroadcastScheme s(3);
  s.add(0, 1, 1.25);
  s.add(1, 2, 1.0);
  const std::string dot = s.to_dot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("C0 -> C1"), std::string::npos);
  EXPECT_NE(dot.find("1.25"), std::string::npos);
}

TEST(Scheme, OutEdgesAreSortedByTarget) {
  BroadcastScheme s(5);
  s.add(0, 4, 1.0);
  s.add(0, 1, 1.0);
  s.add(0, 3, 1.0);
  int prev = -1;
  for (const auto& [to, r] : s.out_edges(0)) {
    EXPECT_GT(to, prev);
    prev = to;
  }
}

}  // namespace
}  // namespace bmp
