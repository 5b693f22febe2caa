// Scheme depth / delay metrics — the paper's stated follow-up objective
// ("optimizing the depth of produced schemes in order to minimize delays",
// §VII). In steady-state streaming the data a node receives has crossed a
// chain of relays; the per-node *depth* (longest source path over
// positive-rate edges) bounds its worst-case latency, and the
// flow-weighted depth approximates the mean piece delay observed by the
// simulator. build_scheme_from_word's FeedOrder (word_schedule.hpp) picks
// between the paper's low-degree feeding and shallower or deeper variants.
#pragma once

#include <vector>

#include "bmp/core/scheme.hpp"

namespace bmp {

struct DepthReport {
  std::vector<int> depth;      ///< per node: longest path from the source
  int max_depth = 0;
  double mean_depth = 0.0;     ///< over non-source nodes
  /// Flow-weighted expected hop count: each node's value is the average of
  /// (feeder's value + 1) weighted by received rate; proxies mean latency.
  std::vector<double> weighted_depth;
  double max_weighted_depth = 0.0;
};

/// Computes depth metrics. Requires an acyclic scheme (cyclic schemes have
/// unbounded paths; their steady-state delay needs the simulator).
DepthReport analyze_depth(const BroadcastScheme& scheme);

}  // namespace bmp
