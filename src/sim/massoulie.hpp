// Event-driven simulation of randomized decentralized broadcasting à la
// Massoulié et al. (paper reference [4], used in §II.C): the source injects
// stream pieces at a fixed rate; each overlay edge (i, j) is a QoS-capped
// pipe of rate c_ij that, whenever idle, picks a *uniformly random useful*
// piece (one i holds and j neither holds nor is currently receiving) and
// transfers it in 1/c_ij time units.
//
// The paper's positioning: their overlay construction guarantees exactly
// the preconditions of Massoulié's optimality theorem (edge bandwidths
// without node contention), so random useful forwarding on the overlay
// achieves rates arbitrarily close to the overlay throughput T. This
// simulator demonstrates that end to end (`bench_paper simulation`, examples).
#pragma once

#include <cstdint>
#include <vector>

#include "bmp/core/scheme.hpp"

namespace bmp::sim {

struct SimConfig {
  double source_rate = 1.0;  ///< pieces injected per unit time (the stream rate)
  double duration = 500.0;   ///< simulated time horizon
  double warmup = 100.0;     ///< measurement starts here (steady state)
  std::uint64_t seed = 1;
  bool dedup_in_flight = true;  ///< never send the same piece to j twice at once
};

struct NodeStats {
  std::int64_t pieces_received = 0;  ///< within the measurement window
  double rate = 0.0;                 ///< pieces per unit time in the window
  double mean_delay = 0.0;           ///< arrival time - injection time
};

struct SimResult {
  std::vector<NodeStats> nodes;  ///< index 0 = source (rate == source_rate)
  double min_rate = 0.0;         ///< worst receiving node
  double mean_rate = 0.0;        ///< average over non-source nodes
  std::int64_t transfers = 0;    ///< completed piece transfers
  std::int64_t duplicates = 0;   ///< transfers that arrived already-known
};

/// Runs the simulation on `overlay` (edge rates = QoS caps). Piece size is
/// 1, so an edge of rate r moves one piece per 1/r time.
SimResult simulate_random_useful(const BroadcastScheme& overlay,
                                 const SimConfig& config);

}  // namespace bmp::sim
