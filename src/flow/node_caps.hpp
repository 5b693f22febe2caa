// Extension beyond the paper's model: finite *incoming* bandwidths. The
// paper assumes downloads are non-binding (§II.D, "we implicitly assume
// that the input bandwidth of each participating node is large enough");
// real residential links are asymmetric but downloads can still bind for
// fast uplinks. This module adds
//   * validation of a scheme against download caps, and
//   * throughput evaluation with node capacities via the classic
//     node-splitting reduction (v -> v_in/v_out with an internal edge of
//     capacity b_in(v)), solved as one rooted min cut.
// It lets users check when the paper's assumption is safe (download cap
// >= target rate T suffices) and measure the degradation when it is not.
#pragma once

#include <string>
#include <vector>

#include "bmp/core/scheme.hpp"
#include "bmp/flow/maxflow.hpp"

namespace bmp::flow {

/// Reusable throughput probe for one scheme under varying download caps.
/// The node-split graph is built once; each probe rewrites only the cap
/// edges in place (MaxFlowGraph::set_capacity) and re-runs one rooted min
/// cut on the same storage. The source 0 stays unsplit; every other node
/// v splits into v_in = v and v_out = v + N - 1 joined by its cap edge,
/// and scheme edges run u_out -> v_in. v_out's only in-arc leaves v_in, so
/// maxflow(0 -> v_in) >= maxflow(0 -> v_out): the rooted cut is the capped
/// throughput, min over the v_out sinks.
class DownloadCapProbe {
 public:
  explicit DownloadCapProbe(const BroadcastScheme& scheme);

  /// Per-node caps (index 0 = source, which is never capped); size must be
  /// the scheme's node count.
  void set_caps(const std::vector<double>& download_cap);
  /// Caps every non-source node at `cap`.
  void set_uniform_cap(double cap);

  /// min_k maxflow(0 -> k_out) under the current caps.
  double throughput();

 private:
  int num_nodes_ = 0;
  double unbounded_ = 0.0;
  MaxFlowGraph graph_;
};

/// Violations of per-node download caps (in_rate(v) > download_cap[v]).
std::vector<std::string> validate_download_caps(
    const BroadcastScheme& scheme, const std::vector<double>& download_cap,
    double tol = 1e-7);

/// Throughput min_k maxflow(0 -> k) where every non-source node k also has
/// an incoming capacity download_cap[k] (node splitting). download_cap[0]
/// is ignored.
double scheme_throughput_with_download_caps(
    const BroadcastScheme& scheme, const std::vector<double>& download_cap);

/// Largest uniform download cap d such that capping every node at d still
/// leaves the scheme's throughput >= T - tol. For schemes with inflow
/// exactly T everywhere this is T itself — quantifying how tight the
/// paper's "large enough" assumption really is.
double minimal_uniform_download_cap(const BroadcastScheme& scheme, double T,
                                    double tol = 1e-6);

}  // namespace bmp::flow
