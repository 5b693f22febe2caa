#include "bmp/flow/maxflow.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace bmp::flow {

namespace {

// Hao–Orlin keeps node state in level_: a label >= 0 marks an awake node,
// kSourceSide a finished sink or the source, and dormant(k) a member of
// the k-th dormant set. Discharge looks for label - 1 >= -1: no match.
constexpr int kSourceSide = -2;
int dormant(std::size_t set) { return -3 - static_cast<int>(set); }

std::size_t ix(int v) { return static_cast<std::size_t>(v); }

void check_capacity(double capacity) {
  // A plain `capacity < 0` lets NaN through into the excess arithmetic.
  if (!std::isfinite(capacity) || capacity < 0.0) {
    throw std::invalid_argument("MaxFlowGraph: negative or non-finite capacity");
  }
}

}  // namespace

void MaxFlowGraph::assign(int num_nodes) {
  if (num_nodes <= 0) throw std::invalid_argument("MaxFlowGraph: empty node set");
  num_nodes_ = num_nodes;
  to_.clear();
  cap_.clear();
  original_.clear();
  finalized_ = false;
  max_capacity_ = 0.0;
  bfs_rounds_ = 0;
  pushes_ = 0;
  relabels_ = 0;
}

int MaxFlowGraph::add_edge(int from, int to, double capacity) {
  if (from < 0 || from >= num_nodes_ || to < 0 || to >= num_nodes_) {
    throw std::out_of_range("MaxFlowGraph::add_edge: node out of range");
  }
  check_capacity(capacity);
  const int id = static_cast<int>(to_.size());
  max_capacity_ = std::max(max_capacity_, capacity);
  // Forward edge stores the head; the reverse edge stores the tail, so
  // from(id) is recoverable as to_[id ^ 1] when building the CSR index.
  to_.insert(to_.end(), {to, from});
  cap_.insert(cap_.end(), {capacity, 0.0});
  original_.insert(original_.end(), {capacity, 0.0});
  finalized_ = false;
  return id;
}

void MaxFlowGraph::set_capacity(int edge_id, double capacity) {
  if (edge_id < 0 || edge_id >= static_cast<int>(to_.size()) || (edge_id & 1) != 0) {
    throw std::out_of_range("MaxFlowGraph::set_capacity: not a forward edge id");
  }
  check_capacity(capacity);
  // max_capacity_ only ratchets up: eps() must never shrink below the scale
  // of flow already pushed in earlier solves of this probe sequence.
  max_capacity_ = std::max(max_capacity_, capacity);
  const auto id = ix(edge_id);
  original_[id] = cap_[id] = capacity;
  original_[id ^ 1] = cap_[id ^ 1] = 0.0;
}

void MaxFlowGraph::finalize() {
  if (finalized_) return;
  const auto nodes = ix(num_nodes_);
  // Edge id leaves the node its partner points at.
  csr_offset_.assign(nodes + 1, 0);
  for (std::size_t id = 0; id < to_.size(); ++id) ++csr_offset_[ix(to_[id ^ 1]) + 1];
  for (std::size_t v = 0; v < nodes; ++v) csr_offset_[v + 1] += csr_offset_[v];
  csr_edges_.resize(to_.size());
  std::vector<int> cursor(csr_offset_.begin(), csr_offset_.end() - 1);
  for (std::size_t id = 0; id < to_.size(); ++id) {
    csr_edges_[ix(cursor[ix(to_[id ^ 1])]++)] = static_cast<int>(id);
  }
  level_.resize(nodes);
  iter_.resize(nodes);
  queue_.resize(nodes);
  finalized_ = true;
}

bool MaxFlowGraph::bfs_levels(int source, int sink) {
  ++bfs_rounds_;
  std::fill(level_.begin(), level_.end(), -1);
  level_[ix(source)] = 0;
  queue_[0] = source;
  const double cutoff = eps();
  for (int head = 0, tail = 1; head < tail; ++head) {
    const int v = queue_[ix(head)];
    for (int k = csr_offset_[ix(v)]; k < csr_offset_[ix(v) + 1]; ++k) {
      const auto id = ix(csr_edges_[ix(k)]);
      const int to = to_[id];
      if (cap_[id] > cutoff && level_[ix(to)] < 0) {
        level_[ix(to)] = level_[ix(v)] + 1;
        queue_[ix(tail++)] = to;
      }
    }
  }
  return level_[ix(sink)] >= 0;
}

double MaxFlowGraph::dfs_push(int vertex, int sink, double limit) {
  if (vertex == sink) return limit;
  const double cutoff = eps();
  for (int& arc = iter_[ix(vertex)]; arc < csr_offset_[ix(vertex) + 1]; ++arc) {
    const auto id = ix(csr_edges_[ix(arc)]);
    const int to = to_[id];
    if (cap_[id] <= cutoff || level_[ix(to)] != level_[ix(vertex)] + 1) continue;
    const double pushed = dfs_push(to, sink, std::min(limit, cap_[id]));
    if (pushed > cutoff) {
      cap_[id] -= pushed;
      cap_[id ^ 1] += pushed;
      return pushed;
    }
  }
  return 0.0;
}

double MaxFlowGraph::max_flow(int source, int sink) {
  if (source < 0 || source >= num_nodes_ || sink < 0 || sink >= num_nodes_) {
    throw std::out_of_range("MaxFlowGraph::max_flow: node out of range");
  }
  if (source == sink) return std::numeric_limits<double>::infinity();
  finalize();
  double total = 0.0;
  while (bfs_levels(source, sink)) {
    std::copy(csr_offset_.begin(), csr_offset_.end() - 1, iter_.begin());
    for (;;) {
      const double pushed =
          dfs_push(source, sink, std::numeric_limits<double>::infinity());
      if (pushed <= eps()) break;
      total += pushed;
    }
  }
  return total;
}

double MaxFlowGraph::rooted_min_cut(int source) {
  if (source < 0 || source >= num_nodes_) {
    throw std::out_of_range("MaxFlowGraph::rooted_min_cut: node out of range");
  }
  finalize();
  reset();
  const auto nodes = ix(num_nodes_);
  excess_.assign(nodes, 0.0);
  std::fill(level_.begin(), level_.end(), dormant(0));
  level_[ix(source)] = kSourceSide;
  label_head_.assign(2 * nodes, -1);
  label_next_.resize(nodes);
  label_prev_.resize(nodes);
  active_head_.assign(2 * nodes, -1);
  active_next_.resize(nodes);
  // The other nodes start as one dormant set, woken around the lowest id.
  dormant_.resize(nodes);
  std::iota(dormant_.begin(), dormant_.end(), 0);
  dormant_.erase(dormant_.begin() + source);
  dormant_begin_.assign(1, 0);
  max_active_ = -1;
  double best = std::numeric_limits<double>::infinity();
  if (dormant_.empty()) return best;
  saturate_out_arcs(source);
  sink_ = dormant_.front();
  wake_top_set();
  for (int remaining = num_nodes_ - 1;;) {
    while (max_active_ >= 0) {
      const int v = active_head_[ix(max_active_)];
      if (v < 0) {
        --max_active_;
      } else if (relabels_ - relabels_at_bfs_ >= nodes) {
        freeze_from(level_[ix(sink_)]);  // global relabeling
        wake_top_set();
      } else {
        active_head_[ix(max_active_)] = active_next_[ix(v)];
        discharge(v);
      }
    }
    // Every awake node but the sink is drained and no residual arc enters
    // the awake set, so the sink's excess is that set's cut capacity.
    best = std::min(best, excess_[ix(sink_)]);
    if (best <= 0.0 || --remaining == 0) break;
    const int done = sink_;
    const int label = level_[ix(done)];
    unlink_label(done);
    level_[ix(done)] = kSourceSide;
    // Awake labels stay contiguous from the sink's (a relabel never leaves
    // its old label empty), so the next minimum is at `label` or one up.
    sink_ = label_head_[ix(label)] >= 0 ? label_head_[ix(label)]
                                        : label_head_[ix(label + 1)];
    if (sink_ < 0) {
      sink_ = dormant_[dormant_begin_.back()];
      wake_top_set();
    }
    saturate_out_arcs(done);
  }
  return std::max(best, 0.0);
}

void MaxFlowGraph::discharge(int v) {
  const int end = csr_offset_[ix(v) + 1];
  const double cutoff = eps();
  do {
    const int want = level_[ix(v)] - 1;
    for (int& arc = iter_[ix(v)]; arc < end; ++arc) {
      const auto id = ix(csr_edges_[ix(arc)]);
      const auto w = ix(to_[id]);
      if (cap_[id] > cutoff && level_[w] == want) {
        const double delta = std::min(excess_[ix(v)], cap_[id]);
        excess_[ix(v)] -= delta;
        push(id, delta);
        if (excess_[ix(v)] <= cutoff) return;
      }
    }
  } while (relabel(v));
}

bool MaxFlowGraph::relabel(int v) {
  ++relabels_;
  const int label = level_[ix(v)];
  if (label_head_[ix(label)] == v && label_next_[ix(v)] < 0) {
    freeze_from(label);  // v alone at its label: the gap rule
    return false;
  }
  const double cutoff = eps();
  int low = std::numeric_limits<int>::max();
  for (int k = csr_offset_[ix(v)]; k < csr_offset_[ix(v) + 1]; ++k) {
    const auto id = ix(csr_edges_[ix(k)]);
    const auto w = ix(to_[id]);
    if (cap_[id] > cutoff && level_[w] >= 0) low = std::min(low, level_[w]);
  }
  unlink_label(v);
  if (low == std::numeric_limits<int>::max()) {
    // No residual arc into the awake set: v is a dormant set of its own.
    level_[ix(v)] = dormant(dormant_begin_.size());
    dormant_begin_.push_back(dormant_.size());
    dormant_.push_back(v);
    return false;
  }
  level_[ix(v)] = low + 1;
  link_label(v);
  iter_[ix(v)] = csr_offset_[ix(v)];
  return true;
}

void MaxFlowGraph::freeze_from(int label) {
  // A residual arc from an awake node at or above `label` to one below it
  // would be admissible for the relabeled node or break label validity, so
  // none exists: these nodes form a dormant set on top of the stack.
  const int marker = dormant(dormant_begin_.size());
  dormant_begin_.push_back(dormant_.size());
  for (int l = label; label_head_[ix(l)] >= 0; ++l) {
    for (int v = label_head_[ix(l)]; v >= 0; v = label_next_[ix(v)]) {
      level_[ix(v)] = marker;
      dormant_.push_back(v);
    }
    label_head_[ix(l)] = -1;
    active_head_[ix(l)] = -1;
  }
  max_active_ = std::min(max_active_, label - 1);
}

void MaxFlowGraph::wake_top_set() {
  // Exact labels: a reverse BFS from the sink (a member of the top set)
  // over residual arcs inside the set. Members it misses have no residual
  // path to the sink, hence no residual arc into the members it reaches;
  // they stay behind as the top set.
  relabels_at_bfs_ = relabels_;
  const int marker = dormant(dormant_begin_.size() - 1);
  const double cutoff = eps();
  level_[ix(sink_)] = 0;
  queue_[0] = sink_;
  int tail = 1;
  for (int head = 0; head < tail; ++head) {
    const int v = queue_[ix(head)];
    link_label(v);
    iter_[ix(v)] = csr_offset_[ix(v)];
    if (v != sink_ && excess_[ix(v)] > cutoff) activate(v);
    for (int k = csr_offset_[ix(v)]; k < csr_offset_[ix(v) + 1]; ++k) {
      const auto id = ix(csr_edges_[ix(k)]);
      const auto w = ix(to_[id]);
      if (cap_[id ^ 1] > cutoff && level_[w] == marker) {
        level_[w] = level_[ix(v)] + 1;
        queue_[ix(tail++)] = to_[id];
      }
    }
  }
  const auto awake = [&](int v) { return level_[ix(v)] >= 0; };
  const std::size_t begin = dormant_begin_.back();
  dormant_.erase(std::remove_if(dormant_.begin() + static_cast<long>(begin),
                                dormant_.end(), awake),
                 dormant_.end());
  if (dormant_.size() == begin) dormant_begin_.pop_back();
}

void MaxFlowGraph::saturate_out_arcs(int v) {
  for (int k = csr_offset_[ix(v)]; k < csr_offset_[ix(v) + 1]; ++k) {
    const auto id = ix(csr_edges_[ix(k)]);
    if (cap_[id] > 0.0 && level_[ix(to_[id])] != kSourceSide) push(id, cap_[id]);
  }
}

void MaxFlowGraph::push(std::size_t id, double delta) {
  cap_[id] -= delta;
  cap_[id ^ 1] += delta;
  const int w = to_[id];
  const double before = excess_[ix(w)];
  excess_[ix(w)] = before + delta;
  ++pushes_;
  const double cutoff = eps();
  if (level_[ix(w)] >= 0 && w != sink_ && before <= cutoff &&
      excess_[ix(w)] > cutoff) {
    activate(w);
  }
}

void MaxFlowGraph::activate(int v) {
  const int label = level_[ix(v)];
  active_next_[ix(v)] = std::exchange(active_head_[ix(label)], v);
  max_active_ = std::max(max_active_, label);
}

void MaxFlowGraph::link_label(int v) {
  int& head = label_head_[ix(level_[ix(v)])];
  label_prev_[ix(v)] = -1;
  label_next_[ix(v)] = head;
  if (head >= 0) label_prev_[ix(head)] = v;
  head = v;
}

void MaxFlowGraph::unlink_label(int v) {
  const int prev = label_prev_[ix(v)];
  const int next = label_next_[ix(v)];
  (prev >= 0 ? label_next_[ix(prev)] : label_head_[ix(level_[ix(v)])]) = next;
  if (next >= 0) label_prev_[ix(next)] = prev;
}

void MaxFlowGraph::reset() { cap_ = original_; }

double MaxFlowGraph::flow_on(int edge_id) const {
  return original_.at(ix(edge_id)) - cap_.at(ix(edge_id));
}

void MaxFlowGraph::assign(const BroadcastScheme& scheme) {
  assign(scheme.num_nodes());
  for (int i = 0; i < scheme.num_nodes(); ++i) {
    for (const auto& [to, rate] : scheme.out_edges(i)) add_edge(i, to, rate);
  }
}

double scheme_max_flow_to(const BroadcastScheme& scheme, int sink) {
  MaxFlowGraph graph;
  graph.assign(scheme);
  return graph.max_flow(0, sink);
}

}  // namespace bmp::flow
