#include "bmp/flow/verify.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <thread>

#include "bmp/obs/profiler.hpp"
#include "bmp/obs/trace.hpp"
#include "bmp/util/thread_pool.hpp"

namespace bmp::flow {

namespace {

/// The process-shared pool behind VerifyOptions::auto_pool: sized to the
/// hardware, constructed on first use, shared by every verifier that did
/// not bring its own pool. Safe to share across verifiers on different
/// threads (planner workers included): sweep tasks are pure — they never
/// re-enter a verifier or submit to any pool — so no wait cycle can form.
util::ThreadPool* shared_verify_pool() {
  static util::ThreadPool pool;  // ThreadPool(0): hardware_concurrency
  return &pool;
}

}  // namespace

const char* to_string(VerifyTier tier) {
  switch (tier) {
    case VerifyTier::kAcyclicSweep: return "acyclic-sweep";
    case VerifyTier::kWarmMaxFlow: return "warm-maxflow";
    case VerifyTier::kOracle: return "oracle";
  }
  return "?";
}

Verifier::Verifier(VerifyOptions options) : options_(options) {}

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

double limit_bounded_sink_sweep(MaxFlowGraph& graph, int source,
                                std::vector<std::pair<double, int>>& sinks,
                                int* solves) {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& [bound, sink] : sinks) {
    (void)sink;
    best = std::min(best, bound);
  }
  if (best <= 0.0) return 0.0;
  // Ascending-bound order: low-bound sinks are the likeliest to hold the
  // minimum, so visiting them first tightens the limit for the rest of the
  // sweep. Pair order ties break on sink id, keeping it deterministic.
  std::sort(sinks.begin(), sinks.end());
  for (const auto& [bound, sink] : sinks) {
    (void)bound;
    graph.reset();
    best = std::min(best, graph.max_flow(source, sink, best));
    if (solves != nullptr) ++*solves;
    if (best <= 0.0) return 0.0;
  }
  return best;
}

VerifyResult Verifier::warm_maxflow(const BroadcastScheme& scheme) {
  const int num_nodes = scheme.num_nodes();
  VerifyResult result;
  result.tier = VerifyTier::kWarmMaxFlow;

  // Min-inflow seed: maxflow(0 -> k) <= inflow(k) in any digraph, so the
  // minimum inflow upper-bounds the answer and is a valid limit for every
  // solve in the sweep.
  double bound = std::numeric_limits<double>::infinity();
  for (int v = 1; v < num_nodes; ++v) {
    bound = std::min(bound, inflow_[static_cast<std::size_t>(v)]);
  }
  if (bound <= 0.0) {
    result.throughput = 0.0;
    return result;
  }

  graph_.assign(num_nodes);
  for (int i = 0; i < num_nodes; ++i) {
    for (const auto& [to, rate] : scheme.out_edges(i)) {
      graph_.add_edge(i, to, rate);
    }
  }

  sink_order_.clear();
  sink_order_.reserve(static_cast<std::size_t>(num_nodes - 1));
  for (int v = 1; v < num_nodes; ++v) {
    sink_order_.emplace_back(inflow_[static_cast<std::size_t>(v)], v);
  }

  const auto sinks = sink_order_.size();
  // The parallel sweep is the default on multi-core hosts: an explicit
  // pool wins, else the shared verify pool when auto_pool allows it.
  util::ThreadPool* pool = options_.pool;
  if (pool == nullptr && options_.auto_pool &&
      static_cast<int>(sinks) >= options_.parallel_min_sinks &&
      std::thread::hardware_concurrency() > 1) {
    pool = shared_verify_pool();
  }
  const bool parallel =
      pool != nullptr && pool->size() > 1 &&
      static_cast<int>(sinks) >= options_.parallel_min_sinks &&
      options_.parallel_chunks > 1;
  if (!parallel) {
    const std::uint64_t bfs_base = graph_.bfs_rounds();
    result.throughput = limit_bounded_sink_sweep(graph_, 0, sink_order_,
                                                 &result.maxflow_solves);
    result.bfs_rounds = graph_.bfs_rounds() - bfs_base;
    return result;
  }

  // Parallel sweep: fixed-size chunks, one private graph copy and one
  // private running minimum per chunk. Every per-sink value is
  // min(flow_k, local_limit) with local_limit >= the true global minimum
  // (it starts at `bound` and only drops through values that are
  // themselves >= the minimum), so min over chunks is exact. The chunk
  // count is a fixed option, never pool-derived: the split, the per-chunk
  // minima, and every work counter are identical for any pool size or
  // scheduling.
  std::sort(sink_order_.begin(), sink_order_.end());
  graph_.finalize();  // chunks copy the built CSR index, not the edge list
  const std::size_t chunk_count =
      std::min(sinks, static_cast<std::size_t>(options_.parallel_chunks));
  const std::size_t chunk_size = (sinks + chunk_count - 1) / chunk_count;
  std::vector<double> chunk_min(chunk_count, bound);
  std::vector<int> chunk_solves(chunk_count, 0);
  std::vector<std::uint64_t> chunk_bfs(chunk_count, 0);
  const std::uint64_t bfs_base = graph_.bfs_rounds();
  util::parallel_for(
      *pool, 0, chunk_count,
      [&](std::size_t c) {
        MaxFlowGraph local = graph_;
        double best = bound;
        const std::size_t begin = c * chunk_size;
        const std::size_t end = std::min(sinks, begin + chunk_size);
        for (std::size_t k = begin; k < end && best > 0.0; ++k) {
          local.reset();
          best = std::min(best, local.max_flow(0, sink_order_[k].second, best));
          ++chunk_solves[c];
        }
        chunk_min[c] = best;
        chunk_bfs[c] = local.bfs_rounds() - bfs_base;
      },
      /*chunk=*/1);
  for (const int solves : chunk_solves) result.maxflow_solves += solves;
  for (const std::uint64_t bfs : chunk_bfs) result.bfs_rounds += bfs;
  result.throughput =
      std::max(*std::min_element(chunk_min.begin(), chunk_min.end()), 0.0);
  if (options_.profiler != nullptr) {
    options_.profiler->count("verify/tier2_maxflow", "parallel_sweeps");
    options_.profiler->count("verify/tier2_maxflow", "graph_copies",
                             chunk_count);
  }
  ++stats_.parallel_sweeps;
  return result;
}

VerifyResult Verifier::dispatch(const BroadcastScheme& scheme) {
  const int num_nodes = scheme.num_nodes();
  if (options_.force_tier && options_.tier == VerifyTier::kOracle) {
    // Same sweep as scheme_throughput_oracle (full solve per sink, early
    // exit at zero), run on the reusable graph so the solve count in the
    // result is the number of Dinic invocations that actually happened.
    VerifyResult result;
    result.tier = VerifyTier::kOracle;
    graph_.assign(num_nodes);
    for (int i = 0; i < num_nodes; ++i) {
      for (const auto& [to, rate] : scheme.out_edges(i)) {
        graph_.add_edge(i, to, rate);
      }
    }
    double best = std::numeric_limits<double>::infinity();
    const std::uint64_t bfs_base = graph_.bfs_rounds();
    for (int sink = 1; sink < num_nodes; ++sink) {
      graph_.reset();
      best = std::min(best, graph_.max_flow(0, sink));
      ++result.maxflow_solves;
      if (best <= 0.0) break;
    }
    result.bfs_rounds = graph_.bfs_rounds() - bfs_base;
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
    double best = std::numeric_limits<double>::infinity();
    for (int v = 1; v < num_nodes; ++v) {
      best = std::min(best, inflow_[static_cast<std::size_t>(v)]);
    }
    result.throughput = best;
    return result;
  }
  return warm_maxflow(scheme);
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
  stats_.bfs_rounds += result.bfs_rounds;
  if (options_.profiler != nullptr) {
    obs::Profiler& profiler = *options_.profiler;
    switch (result.tier) {
      case VerifyTier::kAcyclicSweep:
        profiler.enter("verify/tier1_sweep");
        profiler.count("verify/tier1_sweep", "nodes",
                       static_cast<std::uint64_t>(scheme.num_nodes()));
        break;
      case VerifyTier::kWarmMaxFlow:
        profiler.enter("verify/tier2_maxflow");
        profiler.count("verify/tier2_maxflow", "solves",
                       static_cast<std::uint64_t>(result.maxflow_solves));
        profiler.count("verify/tier2_maxflow", "bfs_rounds",
                       result.bfs_rounds);
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
  if (options_.trace != nullptr) {
    const double wall_us =
        options_.collect_timing ? stats_.last_us : -1.0;
    options_.trace->complete(
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

}  // namespace bmp::flow
