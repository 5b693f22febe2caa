// Baseline overlay constructions the paper positions itself against
// (§II.B): a source-only star, a linear chain, k-ary trees, a simplified
// SplitStream (k interior-disjoint stripe trees, reference [7]) and an
// unstructured random mesh (gossip-style, reference [5]). All respect the
// firewall constraint (guarded nodes never feed guarded nodes) and the
// bounded multi-port bandwidth caps; `bench_paper baselines` compares their
// throughput and degrees against the paper's algorithms.
#pragma once

#include <string>

#include "bmp/core/instance.hpp"
#include "bmp/core/scheme.hpp"
#include "bmp/util/rng.hpp"

namespace bmp::baselines {

struct BaselineResult {
  std::string name;
  BroadcastScheme scheme;
  double throughput = 0.0;  ///< verified via min max-flow
};

/// Source feeds every node directly: T = b0 / (n+m), outdegree(0) = n+m.
BaselineResult star(const Instance& instance);

/// Pipeline through the open nodes (sorted by bandwidth), guarded nodes
/// hang off spine nodes (balanced greedily): each spine node forwards T to
/// its successor plus T per attached guarded node.
BaselineResult chain(const Instance& instance);

/// k-ary tree: open nodes (sorted) form the interior in BFS order, guarded
/// nodes fill the leaves. T = min over interior of b_i / #children_i.
BaselineResult kary_tree(const Instance& instance, int arity);

/// Best k-ary tree over arity in [1, 8].
BaselineResult best_kary_tree(const Instance& instance);

/// SplitStream-like striped multicast: `stripes` trees, each open node is
/// interior in exactly one stripe, every other node is a leaf; each stripe
/// carries T / stripes.
BaselineResult splitstream_like(const Instance& instance, int stripes,
                                util::Xoshiro256& rng);

/// Unstructured mesh: every non-source node picks `degree` random eligible
/// in-neighbors; every sender splits its bandwidth evenly over its
/// out-edges. Throughput measured by max-flow.
BaselineResult random_mesh(const Instance& instance, int degree,
                           util::Xoshiro256& rng);

}  // namespace bmp::baselines
