#include "bmp/flow/verify.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>

#include "bmp/obs/profiler.hpp"
#include "bmp/obs/trace.hpp"

namespace bmp::flow {

const char* to_string(VerifyTier tier) {
  switch (tier) {
    case VerifyTier::kAcyclicSweep: return "acyclic-sweep";
    case VerifyTier::kRootedMinCut: return "rooted-min-cut";
    case VerifyTier::kOracle: return "oracle";
  }
  return "?";
}

bool Verifier::acyclic_sweep(const BroadcastScheme& scheme) {
  const int num_nodes = scheme.num_nodes();
  const auto nodes = static_cast<std::size_t>(num_nodes);
  indegree_.assign(nodes, 0);
  inflow_.assign(nodes, 0.0);
  for (int i = 0; i < num_nodes; ++i) {
    for (const auto& [to, rate] : scheme.out_edges(i)) {
      ++indegree_[static_cast<std::size_t>(to)];
      inflow_[static_cast<std::size_t>(to)] += rate;
    }
  }
  stack_.clear();
  for (int v = 0; v < num_nodes; ++v) {
    if (indegree_[static_cast<std::size_t>(v)] == 0) stack_.push_back(v);
  }
  int processed = 0;
  while (!stack_.empty()) {
    const int v = stack_.back();
    stack_.pop_back();
    ++processed;
    for (const auto& [to, rate] : scheme.out_edges(v)) {
      (void)rate;
      if (--indegree_[static_cast<std::size_t>(to)] == 0) stack_.push_back(to);
    }
  }
  return processed == num_nodes;
}

VerifyResult Verifier::dispatch(const BroadcastScheme& scheme) {
  const int num_nodes = scheme.num_nodes();
  if (options_.force_tier && options_.tier == VerifyTier::kOracle) {
    // One full Dinic solve per sink, early exit at zero.
    VerifyResult result;
    result.tier = VerifyTier::kOracle;
    graph_.assign(scheme);
    double best = std::numeric_limits<double>::infinity();
    for (int sink = 1; sink < num_nodes; ++sink) {
      graph_.reset();
      best = std::min(best, graph_.max_flow(0, sink));
      ++result.maxflow_solves;
      if (best <= 0.0) break;
    }
    result.bfs_rounds = graph_.bfs_rounds();
    result.throughput = std::max(best, 0.0);
    return result;
  }

  const bool acyclic = acyclic_sweep(scheme);
  if (options_.force_tier && options_.tier == VerifyTier::kAcyclicSweep &&
      !acyclic) {
    throw std::invalid_argument(
        "Verifier: kAcyclicSweep forced on a cyclic scheme");
  }
  const bool sweep =
      options_.force_tier ? options_.tier == VerifyTier::kAcyclicSweep : acyclic;
  if (sweep) {
    VerifyResult result;
    result.tier = VerifyTier::kAcyclicSweep;
    result.throughput =
        num_nodes > 1 ? *std::min_element(inflow_.begin() + 1, inflow_.end())
                      : std::numeric_limits<double>::infinity();
    return result;
  }
  VerifyResult result;
  result.tier = VerifyTier::kRootedMinCut;
  graph_.assign(scheme);
  result.throughput = graph_.rooted_min_cut(0);
  result.maxflow_solves = 1;
  result.pushes = graph_.pushes();
  result.relabels = graph_.relabels();
  return result;
}

VerifyResult Verifier::verify(const BroadcastScheme& scheme) {
  const auto start = options_.collect_timing
                         ? std::chrono::steady_clock::now()
                         : std::chrono::steady_clock::time_point{};
  const VerifyResult result = dispatch(scheme);
  ++stats_.calls;
  if (result.tier == VerifyTier::kAcyclicSweep) {
    ++stats_.tier_sweep;
  } else {
    ++stats_.tier_maxflow;
  }
  stats_.maxflow_solves += static_cast<std::uint64_t>(result.maxflow_solves);
  if (hooks_.profiler != nullptr) {
    obs::Profiler& profiler = *hooks_.profiler;
    switch (result.tier) {
      case VerifyTier::kAcyclicSweep:
        profiler.enter("verify/tier1_sweep");
        profiler.count("verify/tier1_sweep", "nodes",
                       static_cast<std::uint64_t>(scheme.num_nodes()));
        break;
      case VerifyTier::kRootedMinCut:
        profiler.enter("verify/tier2_maxflow");  // one solve per call
        profiler.count("verify/tier2_maxflow", "pushes", result.pushes);
        profiler.count("verify/tier2_maxflow", "relabels", result.relabels);
        break;
      case VerifyTier::kOracle:
        profiler.enter("verify/oracle");
        profiler.count("verify/oracle", "solves",
                       static_cast<std::uint64_t>(result.maxflow_solves));
        profiler.count("verify/oracle", "bfs_rounds", result.bfs_rounds);
        break;
    }
  }
  if (options_.collect_timing) {
    stats_.last_us = std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    stats_.total_us += stats_.last_us;
  }
  if (hooks_.trace != nullptr) {
    const double wall_us =
        options_.collect_timing ? stats_.last_us : -1.0;
    hooks_.trace->complete(
        obs::Lane::kVerify, "flow", "verify",
        {{"tier", to_string(result.tier)},
         {"n", scheme.num_nodes()},
         {"solves", result.maxflow_solves},
         {"throughput", result.throughput}},
        wall_us);
  }
  return result;
}

VerifyResult verify_throughput(const BroadcastScheme& scheme) {
  thread_local Verifier verifier;
  return verifier.verify(scheme);
}

double scheme_throughput(const BroadcastScheme& scheme) {
  return verify_throughput(scheme).throughput;
}

double scheme_throughput_oracle(const BroadcastScheme& scheme) {
  VerifyOptions options;
  options.force_tier = true;
  options.tier = VerifyTier::kOracle;
  options.collect_timing = false;
  return Verifier(options).verify(scheme).throughput;
}

}  // namespace bmp::flow
