// Broadcast-tree decomposition (paper §II.C): a broadcast scheme of
// throughput T can be decomposed into weighted broadcast trees (spanning
// arborescences rooted at the source) whose weights sum to T — Schrijver,
// Combinatorial Optimization, ch. 53. The decomposition tells the transport
// layer which data to push on which edge.
//
// For the ACYCLIC schemes our algorithms emit, every non-source node has
// inflow exactly T, which admits a simple greedy peeling: each node picks a
// parent among its positive-residual in-edges, the minimum residual (capped
// by the remaining weight) is peeled off as one tree, and the invariant
// "residual inflow >= remaining weight at every node" is preserved because
// each tree uses exactly one in-edge per node. Each peel zeroes at least
// one edge or finishes, so at most |E| + 1 trees are produced.
#pragma once

#include <vector>

#include "bmp/core/scheme.hpp"

namespace bmp::trees {

struct WeightedArborescence {
  double weight = 0.0;
  /// parent[v] for every node; parent[0] == -1 (the source). Nodes that are
  /// not reached (only possible for inflow-0 nodes of partial schemes) also
  /// hold -1.
  std::vector<int> parent;
};

struct Decomposition {
  std::vector<WeightedArborescence> trees;
  double total_weight = 0.0;
};

/// Decomposes an acyclic scheme feeding every non-source node at rate T
/// into weighted arborescences whose weights sum to the smallest inflow
/// (T when no node falls short of it). Throws std::invalid_argument when
/// the scheme is cyclic or some node's inflow deviates from T beyond
/// tolerance.
Decomposition decompose_acyclic(const BroadcastScheme& scheme, double T,
                                double tol = 1e-6);

/// Checks that `d` is a valid decomposition of `scheme`: every tree is a
/// spanning arborescence rooted at 0, weights are positive and sum to T,
/// and per-edge usage stays within capacity (+tol).
bool validate_decomposition(const BroadcastScheme& scheme, const Decomposition& d,
                            double T, double tol = 1e-6);

}  // namespace bmp::trees
