#include "bmp/flow/node_caps.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace bmp::flow {

std::vector<std::string> validate_download_caps(
    const BroadcastScheme& scheme, const std::vector<double>& download_cap,
    double tol) {
  if (static_cast<int>(download_cap.size()) != scheme.num_nodes()) {
    throw std::invalid_argument("validate_download_caps: size mismatch");
  }
  std::vector<std::string> issues;
  const std::vector<double> in_rates = scheme.in_rates();
  for (int v = 1; v < scheme.num_nodes(); ++v) {
    const double in = in_rates[static_cast<std::size_t>(v)];
    if (in > download_cap[static_cast<std::size_t>(v)] + tol) {
      std::ostringstream os;
      os << "download cap violated at node " << v << ": receives " << in
         << " > cap " << download_cap[static_cast<std::size_t>(v)];
      issues.push_back(os.str());
    }
  }
  return issues;
}

DownloadCapProbe::DownloadCapProbe(const BroadcastScheme& scheme)
    : num_nodes_(scheme.num_nodes()) {
  const int N = num_nodes_;
  // Caps clamp to total_rate + 1, which no flow can exceed: an "infinite"
  // sentinel would wreck the solver's relative tolerances.
  unbounded_ = scheme.total_rate() + 1.0;
  const auto out = [N](int v) { return v == 0 ? 0 : v + N - 1; };
  graph_.assign(2 * N - 1);
  // Cap edges first, so node v's is edge 2 * (v - 1).
  for (int v = 1; v < N; ++v) graph_.add_edge(v, out(v), unbounded_);
  for (int v = 0; v < N; ++v) {
    for (const auto& [to, rate] : scheme.out_edges(v)) {
      // An edge into the source never crosses a cut rooted there.
      if (to != 0) graph_.add_edge(out(v), to, rate);
    }
  }
}

void DownloadCapProbe::set_caps(const std::vector<double>& download_cap) {
  if (static_cast<int>(download_cap.size()) != num_nodes_) {
    throw std::invalid_argument("DownloadCapProbe: size mismatch");
  }
  for (int v = 1; v < num_nodes_; ++v) {
    graph_.set_capacity(
        2 * (v - 1), std::min(download_cap[static_cast<std::size_t>(v)], unbounded_));
  }
}

void DownloadCapProbe::set_uniform_cap(double cap) {
  set_caps(std::vector<double>(static_cast<std::size_t>(num_nodes_), cap));
}

double DownloadCapProbe::throughput() {
  if (num_nodes_ <= 1) return 0.0;
  return graph_.rooted_min_cut(0);
}

double scheme_throughput_with_download_caps(
    const BroadcastScheme& scheme, const std::vector<double>& download_cap) {
  DownloadCapProbe probe(scheme);
  probe.set_caps(download_cap);
  return probe.throughput();
}

double minimal_uniform_download_cap(const BroadcastScheme& scheme, double T,
                                    double tol) {
  if (T <= 0.0) return 0.0;
  double lo = 0.0;
  double hi = 0.0;
  const std::vector<double> in_rates = scheme.in_rates();
  for (int v = 1; v < scheme.num_nodes(); ++v) {
    hi = std::max(hi, in_rates[static_cast<std::size_t>(v)]);
  }
  if (hi <= 0.0) return 0.0;
  // One probe for all 50 bisection iterations: only the N internal-edge
  // capacities change between evaluations.
  DownloadCapProbe probe(scheme);
  for (int iter = 0; iter < 50; ++iter) {
    const double mid = 0.5 * (lo + hi);
    probe.set_uniform_cap(mid);
    const double reached = probe.throughput();
    if (reached + tol >= T) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

}  // namespace bmp::flow
