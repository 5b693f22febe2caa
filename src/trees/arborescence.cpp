#include "bmp/trees/arborescence.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <vector>

namespace bmp::trees {

Decomposition decompose_acyclic(const BroadcastScheme& scheme, double T,
                                double tol) {
  if (!scheme.is_acyclic()) {
    throw std::invalid_argument("decompose_acyclic: scheme has cycles");
  }
  if (scheme.max_inflow_deviation(T) > tol) {
    throw std::invalid_argument(
        "decompose_acyclic: inflow differs from T at some node");
  }
  const int N = scheme.num_nodes();
  Decomposition result;
  if (T <= tol) return result;

  // Residual in-edges per node: (sender -> residual rate).
  std::vector<std::map<int, double>> in(static_cast<std::size_t>(N));
  for (int i = 0; i < N; ++i) {
    for (const auto& [to, r] : scheme.out_edges(i)) {
      in[static_cast<std::size_t>(to)][i] = r;
    }
  }

  // Two scales: `stop` bounds how much of T may remain unpacked (well below
  // the validation tolerance), while `erase` only discards machine-noise
  // residuals — erasing more aggressively would silently drain a node's
  // in-edges over many peels and strand it.
  const double stop = 1e-9 * T;
  const double erase = 1e-13 * T;
  // Nodes that the scheme feeds must stay spanned until the weight budget
  // is exhausted. The budget is the scheme's own minimum inflow, not T: a
  // node fed a hair short of T would otherwise run dry while weight
  // remains. Every fed node keeps a residual inflow of at least
  // `remaining`, so each peel still zeroes an edge or finishes.
  std::vector<bool> fed(static_cast<std::size_t>(N), false);
  double remaining = T;
  for (int v = 1; v < N; ++v) {
    const auto& senders = in[static_cast<std::size_t>(v)];
    if (senders.empty()) continue;
    fed[static_cast<std::size_t>(v)] = true;
    double inflow = 0.0;
    for (const auto& [sender, rate] : senders) inflow += rate;
    remaining = std::min(remaining, inflow);
  }

  const int max_trees = scheme.edge_count() + 1;
  for (int round = 0; round < max_trees && remaining > stop; ++round) {
    WeightedArborescence tree;
    tree.parent.assign(static_cast<std::size_t>(N), -1);
    double weight = remaining;
    // Pick, for every fed node, the in-edge with the largest residual
    // (fewer trees than picking arbitrarily).
    for (int v = 1; v < N; ++v) {
      if (!fed[static_cast<std::size_t>(v)]) continue;
      const auto& candidates = in[static_cast<std::size_t>(v)];
      int best_parent = -1;
      double best_residual = 0.0;
      for (const auto& [sender, residual] : candidates) {
        if (residual > best_residual) {
          best_residual = residual;
          best_parent = sender;
        }
      }
      if (best_parent < 0 || best_residual <= erase) {
        throw std::logic_error(
            "decompose_acyclic: residual inflow invariant violated");
      }
      tree.parent[static_cast<std::size_t>(v)] = best_parent;
      weight = std::min(weight, best_residual);
    }
    tree.weight = weight;
    // Peel: subtract the weight from every chosen edge.
    for (int v = 1; v < N; ++v) {
      const int parent = tree.parent[static_cast<std::size_t>(v)];
      if (parent < 0) continue;
      auto& candidates = in[static_cast<std::size_t>(v)];
      auto it = candidates.find(parent);
      it->second -= weight;
      if (it->second <= erase) candidates.erase(it);
    }
    remaining -= weight;
    result.total_weight += weight;
    result.trees.push_back(std::move(tree));
  }
  if (remaining > stop) {
    throw std::logic_error("decompose_acyclic: failed to exhaust throughput");
  }
  // Fold the leftover (at most `stop`) into the last tree so the weights
  // sum to the budget.
  if (!result.trees.empty()) result.trees.back().weight += remaining;
  result.total_weight += remaining;
  return result;
}

bool validate_decomposition(const BroadcastScheme& scheme, const Decomposition& d,
                            double T, double tol) {
  const int N = scheme.num_nodes();
  const double eps = tol * std::max(T, 1e-300);  // relative, scale-free
  double weight_sum = 0.0;
  std::map<std::pair<int, int>, double> usage;

  // Which nodes must be covered: those with positive inflow in the scheme.
  std::vector<bool> fed(static_cast<std::size_t>(N), false);
  for (int i = 0; i < N; ++i) {
    for (const auto& [to, r] : scheme.out_edges(i)) {
      if (r > eps) fed[static_cast<std::size_t>(to)] = true;
    }
  }

  for (const auto& tree : d.trees) {
    if (tree.weight <= 0.0) return false;
    if (static_cast<int>(tree.parent.size()) != N) return false;
    if (tree.parent[0] != -1) return false;
    weight_sum += tree.weight;
    for (int v = 1; v < N; ++v) {
      const int p = tree.parent[static_cast<std::size_t>(v)];
      if (p < 0) {
        if (fed[static_cast<std::size_t>(v)]) return false;  // must be spanned
        continue;
      }
      usage[{p, v}] += tree.weight;
      // Walk to the root to confirm reachability (acyclic parents, <= N hops).
      int cursor = v;
      int hops = 0;
      while (cursor > 0 && hops++ <= N) {
        cursor = tree.parent[static_cast<std::size_t>(cursor)];
        if (cursor < 0) return false;
      }
      if (cursor != 0) return false;
    }
  }
  if (std::abs(weight_sum - T) > eps) return false;
  for (const auto& [edge, used] : usage) {
    if (used > scheme.rate(edge.first, edge.second) + eps) return false;
  }
  return true;
}

}  // namespace bmp::trees
