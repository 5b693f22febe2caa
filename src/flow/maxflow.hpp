// Max-flow on double capacities. This is the substrate that gives the
// *definition* of broadcast throughput (paper §II.D):
//     T(scheme) = min_k maxflow(C0 -> Ck),
// the minimum cut rooted at C0 of the weighted overlay digraph, so every
// constructive algorithm in the library is verified against it.
//
// MaxFlowGraph is a flat CSR adjacency with structure-of-arrays edges and
// two solvers: rooted_min_cut (Hao–Orlin, the verification hot path) and
// max_flow (Dinic, one sink at a time: the tier-3 oracle). Solver scratch
// lives in the graph, so reusing one graph allocates only on growth.
#pragma once

#include <cstdint>
#include <vector>

#include "bmp/core/scheme.hpp"

namespace bmp::flow {

class MaxFlowGraph {
 public:
  /// An empty graph; assign() before use (reusable-scratch construction).
  MaxFlowGraph() = default;
  explicit MaxFlowGraph(int num_nodes) { assign(num_nodes); }

  /// Re-targets the graph at a new node set, dropping all edges but keeping
  /// every internal buffer's capacity — the reuse entry point for callers
  /// that verify many schemes through one solver.
  void assign(int num_nodes);
  /// assign() to the scheme's node set, then one edge per scheme edge.
  void assign(const BroadcastScheme& scheme);

  /// Adds a directed edge with the given capacity; returns its edge id.
  /// Throws std::invalid_argument on a negative or non-finite capacity.
  /// Invalidates the CSR index (rebuilt lazily on the next solve).
  int add_edge(int from, int to, double capacity);

  /// Overwrites the construction capacity of an existing edge (forward
  /// direction only) and resets its residual pair. Used by probes that
  /// re-solve the same topology under varying capacities (node_caps
  /// bisection) without rebuilding the graph. Keeps the CSR index valid.
  void set_capacity(int edge_id, double capacity);

  [[nodiscard]] int num_nodes() const { return num_nodes_; }
  [[nodiscard]] int num_edges() const { return static_cast<int>(to_.size()) / 2; }

  /// Computes max flow from s to t (Dinic: BFS levels + blocking DFS).
  /// Residual capacities are consumed; call reset() to restore.
  double max_flow(int source, int sink);

  /// min over t != source of maxflow(source -> t) on the construction
  /// capacities (+infinity on a one-node graph) from one Hao–Orlin
  /// push-relabel run: each phase drains the awake nodes (highest label
  /// first) into a minimum-label sink, reads its cut as the sink's excess,
  /// then moves the sink to the source side with its out-arcs saturated.
  /// The gap rule and nodes without a residual arc into the awake set
  /// freeze into a stack of dormant sets, which wake last-in first-out
  /// with exact labels from a reverse BFS. Consumes residual capacities.
  double rooted_min_cut(int source);

  /// Restores all capacities to their construction values (one memcpy).
  void reset();

  /// Flow currently pushed through edge id (cap_original - cap_residual).
  [[nodiscard]] double flow_on(int edge_id) const;

  /// Deterministic work counters since assign(): Dinic BFS level-graph
  /// rebuilds; Hao–Orlin pushes (sink saturations included) and relabels
  /// (freezes included).
  [[nodiscard]] std::uint64_t bfs_rounds() const { return bfs_rounds_; }
  [[nodiscard]] std::uint64_t pushes() const { return pushes_; }
  [[nodiscard]] std::uint64_t relabels() const { return relabels_; }

 private:
  /// (Re)builds the CSR index after add_edge; every solver calls it first.
  void finalize();

  bool bfs_levels(int source, int sink);
  double dfs_push(int vertex, int sink, double limit);

  // Hao–Orlin steps (rooted_min_cut).
  void discharge(int v);
  bool relabel(int v);
  void freeze_from(int label);
  void wake_top_set();
  void saturate_out_arcs(int v);
  void push(std::size_t id, double delta);
  void activate(int v);
  void link_label(int v);
  void unlink_label(int v);

  /// Scale-free augmentation cutoff: relative to the largest capacity.
  [[nodiscard]] double eps() const { return 1e-12 * max_capacity_; }

  // Edge arrays, SoA; edge 2k ~ forward, 2k+1 ~ reverse. The tail of a
  // stored edge is the head of its partner: from(id) == to_[id ^ 1].
  std::vector<int> to_;
  std::vector<double> cap_;
  std::vector<double> original_;

  // CSR adjacency over edge ids, built lazily from the edge list.
  std::vector<int> csr_offset_;  // size num_nodes_ + 1
  std::vector<int> csr_edges_;   // size 2 * num_edges()

  // Per-solve scratch. level_: Dinic BFS levels, or Hao–Orlin labels
  // (negative codes for non-awake nodes); iter_: arc cursors; queue_: BFS.
  // Hao–Orlin labels stay below 2 * num_nodes_: they are contiguous from
  // the sink's, which rises by at most one per phase and restarts at 0 on
  // every BFS.
  std::vector<int> level_;
  std::vector<int> iter_;
  std::vector<int> queue_;
  std::vector<double> excess_;
  std::vector<int> label_head_;  // awake nodes by label, doubly linked
  std::vector<int> label_next_;
  std::vector<int> label_prev_;
  std::vector<int> active_head_;  // active nodes by label, singly linked
  std::vector<int> active_next_;
  std::vector<int> dormant_;  // the dormant sets as one stack
  std::vector<std::size_t> dormant_begin_;
  int sink_ = -1;
  int max_active_ = -1;  // no active node above this label

  int num_nodes_ = 0;
  bool finalized_ = false;
  double max_capacity_ = 0.0;
  std::uint64_t bfs_rounds_ = 0;
  std::uint64_t pushes_ = 0;
  std::uint64_t relabels_ = 0;
  std::uint64_t relabels_at_bfs_ = 0;  // relabels_ at the last label BFS
};

/// Throughput of a broadcast scheme: min over all non-source nodes of the
/// max flow from the source. Dispatches through the tiered verifier
/// (flow/verify.hpp): one O(V+E) sweep for acyclic overlays, one rooted
/// min cut otherwise. Implemented in verify.cpp.
double scheme_throughput(const BroadcastScheme& scheme);

/// The tier-3 oracle: one full Dinic solve per sink, no structure
/// exploited. This is the function of record the fast paths are
/// differential-tested against; production code should call
/// scheme_throughput instead. Implemented in verify.cpp (forced kOracle).
double scheme_throughput_oracle(const BroadcastScheme& scheme);

/// Max flow from node 0 to a single sink on the scheme graph.
double scheme_max_flow_to(const BroadcastScheme& scheme, int sink);

}  // namespace bmp::flow
