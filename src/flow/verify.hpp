// Tiered throughput verification — the fast path for the paper's §II.D
// definition T(scheme) = min_k maxflow(C0 -> Ck).
//
// Tier 1 (acyclic sweep). For an acyclic overlay the minimum over sinks of
// the s-t max flow equals the minimum inflow over non-source nodes, so one
// O(V + E) topological sweep verifies the scheme exactly — zero max-flow
// solves. Proof of the identity:
//   * Upper bound: maxflow(0 -> j) <= inflow(j) (the in-edges of j are a
//     cut), so min_j maxflow(0 -> j) <= min_j inflow(j).
//   * Lower bound: take any 0/j cut (S, V\S) and let u be the node of V\S
//     that comes first in a fixed topological order. Every predecessor of u
//     is topologically earlier, hence inside S, so *all* of u's in-edges
//     cross the cut: capacity(S) >= inflow(u) >= min_v inflow(v). Thus
//     maxflow(0 -> j) = mincut(0 -> j) >= min_v inflow(v) for every j.
// This is exactly the structure the word-schedule constructions emit (every
// node fed at rate T), which makes the planner/session/runtime verification
// loop allocation- and solver-free in the common case.
//
// Tier 2 (rooted min cut). Cyclic or irregular overlays go through one
// Hao–Orlin push-relabel run (MaxFlowGraph::rooted_min_cut), which yields
// min over sinks of maxflow(0 -> k) — the rooted minimum cut — exactly,
// in one solve instead of one per sink, on the verifier's reusable CSR
// graph.
//
// Tier 3 (oracle). scheme_throughput_oracle — one full Dinic solve per
// sink, nothing exploited. Kept as the differential-testing cross-check.
#pragma once

#include <cstdint>
#include <vector>

#include "bmp/core/scheme.hpp"
#include "bmp/flow/maxflow.hpp"
#include "bmp/obs/hooks.hpp"

namespace bmp::flow {

enum class VerifyTier : std::uint8_t {
  kAcyclicSweep,  ///< tier 1: topological min-inflow sweep, no solves
  kRootedMinCut,  ///< tier 2: one Hao–Orlin rooted min cut
  kOracle,        ///< tier 3: full Dinic per sink (cross-check only)
};

[[nodiscard]] const char* to_string(VerifyTier tier);

struct VerifyResult {
  double throughput = 0.0;
  VerifyTier tier = VerifyTier::kAcyclicSweep;
  /// Max-flow solves: 0 on tier 1, 1 on tier 2, one per sink on tier 3.
  int maxflow_solves = 0;
  /// Deterministic work: tier-3 BFS rounds, tier-2 pushes and relabels.
  std::uint64_t bfs_rounds = 0;
  std::uint64_t pushes = 0;
  std::uint64_t relabels = 0;
};

/// Cumulative per-verifier counters; wall-clock total under `total_us`
/// (callers exporting metrics keep it under a `timing.` prefix).
struct VerifyStats {
  std::uint64_t calls = 0;
  std::uint64_t tier_sweep = 0;    ///< verifications served by tier 1
  std::uint64_t tier_maxflow = 0;  ///< verifications served by tier 2/3
  std::uint64_t maxflow_solves = 0;
  double total_us = 0.0;
  double last_us = 0.0;
};

struct VerifyOptions {
  /// Force a tier instead of dispatching on structure. kAcyclicSweep may
  /// only be forced on acyclic schemes (throws otherwise); kOracle is
  /// scheme_throughput_oracle.
  bool force_tier = false;
  VerifyTier tier = VerifyTier::kAcyclicSweep;
  /// Collect wall-clock timings into stats() (two steady_clock reads per
  /// verify; the measurement itself never affects the returned value).
  bool collect_timing = true;
};

/// Reusable verification engine: owns the topological/inflow scratch and
/// the CSR max-flow graph so that verifying a stream of schemes (planner
/// constructions, churn repairs, runtime events) allocates only on
/// high-water-mark growth.
class Verifier {
 public:
  /// `hooks.trace`: one span per verify (tier, solves, throughput). Only
  /// hand it to verifiers that run on the event-loop thread — the
  /// thread-local verifiers inside the planner pool stay untraced so trace
  /// append order is independent of thread count. `hooks.profiler`:
  /// per-tier phase counters under "verify/..."; safe on any thread
  /// (counter sums are commutative).
  explicit Verifier(VerifyOptions options = {}, obs::Hooks hooks = {})
      : options_(options), hooks_(hooks) {}

  VerifyResult verify(const BroadcastScheme& scheme);

  [[nodiscard]] const VerifyStats& stats() const { return stats_; }
  [[nodiscard]] const VerifyOptions& options() const { return options_; }

 private:
  VerifyResult dispatch(const BroadcastScheme& scheme);
  /// Kahn sweep; fills inflow_/indegree_ and returns true iff acyclic.
  bool acyclic_sweep(const BroadcastScheme& scheme);

  VerifyOptions options_;
  obs::Hooks hooks_;
  VerifyStats stats_;

  // Tier-1 scratch.
  std::vector<int> indegree_;
  std::vector<int> stack_;
  std::vector<double> inflow_;
  // Tier-2/3 solver.
  MaxFlowGraph graph_;
};

/// One-shot verification through a thread-local Verifier (scratch reused
/// across calls on each thread).
VerifyResult verify_throughput(const BroadcastScheme& scheme);

}  // namespace bmp::flow
