#include "bmp/core/scheme.hpp"

#include <cmath>
#include <cstddef>
#include <queue>
#include <sstream>
#include <stdexcept>

namespace bmp {

BroadcastScheme::BroadcastScheme(int num_nodes)
    : out_(static_cast<std::size_t>(num_nodes)) {
  if (num_nodes <= 0) throw std::invalid_argument("BroadcastScheme: empty node set");
}

namespace {

// One add() step on a stored rate (0 = absent): the new rate, or 0 when
// it lands within kZeroTol of zero. Scale-free tolerances: relative to the
// magnitudes involved in this update, so bit/s and Gbit/s platforms behave
// identically.
double step_rate(double old, double delta) {
  const double next = old + delta;
  const double magnitude = std::abs(old) + std::abs(delta);
  if (next < -1e-9 * magnitude) {
    throw std::invalid_argument("BroadcastScheme::add: rate driven negative");
  }
  return std::abs(next) <= BroadcastScheme::kZeroTol * magnitude ? 0.0 : next;
}

}  // namespace

void BroadcastScheme::add(int from, int to, double delta) {
  update(from, to, delta, false);
}

void BroadcastScheme::round_trip(int from, int to, double delta) {
  update(from, to, delta, true);
}

void BroadcastScheme::update(int from, int to, double delta, bool round_trip) {
  if (from < 0 || from >= num_nodes() || to < 0 || to >= num_nodes()) {
    throw std::out_of_range("BroadcastScheme::add: node id out of range");
  }
  if (from == to) throw std::invalid_argument("BroadcastScheme::add: self loop");
  if (!std::isfinite(delta)) {
    throw std::invalid_argument("BroadcastScheme::add: non-finite rate");
  }
  auto& edges = out_[static_cast<std::size_t>(from)];
  const auto it = edges.find(to);
  double rate = step_rate(it == edges.end() ? 0.0 : it->second, delta);
  if (round_trip) rate = step_rate(rate, -delta);
  if (rate == 0.0) {
    if (it != edges.end()) edges.erase(it);
  } else if (it == edges.end()) {
    edges.emplace(to, rate);
  } else {
    it->second = rate;
  }
}

double BroadcastScheme::rate(int from, int to) const {
  const auto& edges = out_.at(static_cast<std::size_t>(from));
  const auto it = edges.find(to);
  return it == edges.end() ? 0.0 : it->second;
}

const std::map<int, double>& BroadcastScheme::out_edges(int i) const {
  return out_.at(static_cast<std::size_t>(i));
}

double BroadcastScheme::out_rate(int i) const {
  double sum = 0.0;
  for (const auto& [to, r] : out_edges(i)) sum += r;
  return sum;
}

double BroadcastScheme::in_rate(int i) const {
  double sum = 0.0;
  for (const auto& edges : out_) {
    const auto it = edges.find(i);
    if (it != edges.end()) sum += it->second;
  }
  return sum;
}

std::vector<double> BroadcastScheme::in_rates() const {
  std::vector<double> in(out_.size(), 0.0);
  for (const auto& edges : out_) {
    for (const auto& [to, r] : edges) in[static_cast<std::size_t>(to)] += r;
  }
  return in;
}

int BroadcastScheme::out_degree(int i) const {
  return static_cast<int>(out_edges(i).size());
}

int BroadcastScheme::in_degree(int i) const {
  int deg = 0;
  for (const auto& edges : out_) deg += edges.count(i) != 0 ? 1 : 0;
  return deg;
}

int BroadcastScheme::max_out_degree() const {
  int best = 0;
  for (int i = 0; i < num_nodes(); ++i) best = std::max(best, out_degree(i));
  return best;
}

int BroadcastScheme::edge_count() const {
  int count = 0;
  for (const auto& edges : out_) count += static_cast<int>(edges.size());
  return count;
}

double BroadcastScheme::total_rate() const {
  double sum = 0.0;
  for (int i = 0; i < num_nodes(); ++i) sum += out_rate(i);
  return sum;
}

std::vector<int> BroadcastScheme::topological_order() const {
  const int n = num_nodes();
  std::vector<int> indeg(static_cast<std::size_t>(n), 0);
  for (const auto& edges : out_) {
    for (const auto& [to, r] : edges) ++indeg[static_cast<std::size_t>(to)];
  }
  std::queue<int> ready;
  for (int i = 0; i < n; ++i) {
    if (indeg[static_cast<std::size_t>(i)] == 0) ready.push(i);
  }
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  while (!ready.empty()) {
    const int v = ready.front();
    ready.pop();
    order.push_back(v);
    for (const auto& [to, r] : out_edges(v)) {
      if (--indeg[static_cast<std::size_t>(to)] == 0) ready.push(to);
    }
  }
  if (static_cast<int>(order.size()) != n) order.clear();
  return order;
}

bool BroadcastScheme::is_acyclic() const { return !topological_order().empty(); }

std::vector<std::string> BroadcastScheme::validate(const Instance& instance,
                                                   double tol) const {
  std::vector<std::string> issues;
  if (instance.size() != num_nodes()) {
    issues.push_back("node count mismatch between instance and scheme");
    return issues;
  }
  for (int i = 0; i < num_nodes(); ++i) {
    const double used = out_rate(i);
    if (used > instance.b(i) + tol) {
      std::ostringstream os;
      os << "bandwidth violated at node " << i << ": uses " << used
         << " > b=" << instance.b(i);
      issues.push_back(os.str());
    }
    for (const auto& [to, r] : out_edges(i)) {
      if (instance.is_guarded(i) && instance.is_guarded(to)) {
        std::ostringstream os;
        os << "firewall violated: guarded " << i << " -> guarded " << to;
        issues.push_back(os.str());
      }
      if (r < 0.0) {
        std::ostringstream os;
        os << "negative rate on edge " << i << " -> " << to;
        issues.push_back(os.str());
      }
    }
  }
  return issues;
}

double BroadcastScheme::max_inflow_deviation(double T) const {
  const std::vector<double> in = in_rates();
  double worst = 0.0;
  for (int i = 1; i < num_nodes(); ++i) {
    worst = std::max(worst, std::abs(in[static_cast<std::size_t>(i)] - T));
  }
  return worst;
}

std::string BroadcastScheme::to_dot() const {
  std::ostringstream os;
  os << "digraph broadcast {\n  rankdir=LR;\n";
  for (int i = 0; i < num_nodes(); ++i) {
    for (const auto& [to, r] : out_edges(i)) {
      os << "  C" << i << " -> C" << to << " [label=\"" << r << "\"];\n";
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace bmp
