#include "bmp/core/depth.hpp"

#include <algorithm>
#include <stdexcept>

namespace bmp {

DepthReport analyze_depth(const BroadcastScheme& scheme) {
  const std::vector<int> topo = scheme.topological_order();
  if (topo.empty()) {
    throw std::invalid_argument("analyze_depth: scheme is cyclic");
  }
  const int N = scheme.num_nodes();
  DepthReport report;
  report.depth.assign(static_cast<std::size_t>(N), 0);
  report.weighted_depth.assign(static_cast<std::size_t>(N), 0.0);
  std::vector<double> in_rate(static_cast<std::size_t>(N), 0.0);
  for (int v = 0; v < N; ++v) {
    for (const auto& [to, rate] : scheme.out_edges(v)) {
      in_rate[static_cast<std::size_t>(to)] += rate;
    }
  }

  // Topological order guarantees every feeder of v is finalized before v is
  // visited, so v's accumulator can be normalized at visit time and then
  // propagated.
  for (const int v : topo) {
    if (v != 0 && in_rate[static_cast<std::size_t>(v)] > 0.0) {
      report.weighted_depth[static_cast<std::size_t>(v)] /=
          in_rate[static_cast<std::size_t>(v)];
    }
    for (const auto& [to, rate] : scheme.out_edges(v)) {
      report.depth[static_cast<std::size_t>(to)] =
          std::max(report.depth[static_cast<std::size_t>(to)],
                   report.depth[static_cast<std::size_t>(v)] + 1);
      report.weighted_depth[static_cast<std::size_t>(to)] +=
          rate * (report.weighted_depth[static_cast<std::size_t>(v)] + 1.0);
    }
  }
  double depth_sum = 0.0;
  int fed = 0;
  for (int v = 1; v < N; ++v) {
    if (in_rate[static_cast<std::size_t>(v)] > 0.0) {
      ++fed;
      depth_sum += report.depth[static_cast<std::size_t>(v)];
    }
    report.max_depth = std::max(report.max_depth,
                                report.depth[static_cast<std::size_t>(v)]);
    report.max_weighted_depth =
        std::max(report.max_weighted_depth,
                 report.weighted_depth[static_cast<std::size_t>(v)]);
  }
  report.mean_depth = fed > 0 ? depth_sum / fed : 0.0;
  return report;
}

}  // namespace bmp
