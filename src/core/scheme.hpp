// A broadcast scheme: the weighted overlay digraph {c_ij} produced by the
// algorithms (paper §II.D). Node i sends to node j at rate c_ij; the scheme
// is subject to the bandwidth constraint (sum_j c_ij <= b_i) and the
// firewall constraint (no guarded->guarded edge). Throughput is
// min_k maxflow(C0 -> Ck) — computed in bmp/flow (scheme_throughput) to keep
// this type dependency-free.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bmp/core/instance.hpp"

namespace bmp {

class BroadcastScheme {
 public:
  explicit BroadcastScheme(int num_nodes);

  [[nodiscard]] int num_nodes() const { return static_cast<int>(out_.size()); }

  /// Adds `delta` (may be negative, for the cyclic rerouting steps) to edge
  /// (from,to). Rates that land within a *relative* kZeroTol of zero
  /// (relative to |old| + |delta|) are removed so floating-point residue
  /// never inflates degrees; driving a rate significantly below zero, or a
  /// non-finite delta, throws. Tolerances are scale-free.
  void add(int from, int to, double delta);

  /// add(from, to, delta) then add(from, to, -delta) in one lookup: the
  /// same rounding residue, erasures and throws, without inserting an
  /// absent edge only to erase it again.
  void round_trip(int from, int to, double delta);

  /// Current rate of edge (from,to); 0 if absent.
  [[nodiscard]] double rate(int from, int to) const;

  /// Outgoing edges of node i as (target, rate), ordered by target id.
  [[nodiscard]] const std::map<int, double>& out_edges(int i) const;

  [[nodiscard]] double out_rate(int i) const;
  [[nodiscard]] double in_rate(int i) const;
  /// Every node's inflow from one pass over the out-maps; entry i equals
  /// in_rate(i) bit for bit (both sum in ascending sender order).
  [[nodiscard]] std::vector<double> in_rates() const;
  [[nodiscard]] int out_degree(int i) const;
  [[nodiscard]] int in_degree(int i) const;
  [[nodiscard]] int max_out_degree() const;
  [[nodiscard]] int edge_count() const;
  /// Sum of all edge rates (total traffic).
  [[nodiscard]] double total_rate() const;

  /// True iff the communication graph is a DAG (paper's acyclic schemes).
  [[nodiscard]] bool is_acyclic() const;
  /// A topological order if acyclic, empty vector otherwise.
  [[nodiscard]] std::vector<int> topological_order() const;

  /// Human-readable violation list; empty means the scheme satisfies the
  /// bandwidth and firewall constraints of `instance` within `tol`.
  [[nodiscard]] std::vector<std::string> validate(const Instance& instance,
                                                  double tol = 1e-7) const;

  /// Max |in_rate(i) - T| over non-source nodes — our constructive schemes
  /// feed every node at exactly the target rate.
  [[nodiscard]] double max_inflow_deviation(double T) const;

  /// Graphviz dot output (used by examples).
  [[nodiscard]] std::string to_dot() const;

  static constexpr double kZeroTol = 1e-9;

 private:
  void update(int from, int to, double delta, bool round_trip);

  std::vector<std::map<int, double>> out_;
};

}  // namespace bmp
