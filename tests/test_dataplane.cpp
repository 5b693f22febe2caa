// Data-plane tests: deterministic event ordering, exact pipe timing,
// rarest-first duplicate avoidance, window backpressure, loss/retransmit,
// live patching mid-stream, the bounded multi-port audit — and the ISSUE 4
// acceptance bars: a lossless zero-latency 500-node acyclic scheme must
// *achieve* >= 0.95x the planner's verified throughput end-to-end, and a
// churning multi-channel runtime must sustain >= 0.85x design rate with
// live-patched repairs only, replaying bit-identically across runs and
// planner thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "bmp/core/acyclic_search.hpp"
#include "bmp/dataplane/event_queue.hpp"
#include "bmp/dataplane/execution.hpp"
#include "bmp/flow/verify.hpp"
#include "bmp/gen/generator.hpp"
#include "bmp/runtime/runtime.hpp"
#include "bmp/runtime/scenario.hpp"
#include "bmp/util/rng.hpp"

namespace bmp::dataplane {
namespace {

// ------------------------------------------------------------ event queue

TEST(EventQueue, OrdersByTimeThenPushSequence) {
  EventQueue queue;
  ChunkEvent event;
  event.time = 2.0;
  event.chunk = 0;
  queue.push(event);
  event.time = 1.0;
  event.chunk = 1;
  queue.push(event);
  event.time = 1.0;  // tie: must pop after the earlier push at t = 1
  event.chunk = 2;
  queue.push(event);
  event.time = 0.5;
  event.chunk = 3;
  queue.push(event);
  std::vector<int> order;
  while (!queue.empty()) order.push_back(queue.pop().chunk);
  EXPECT_EQ(order, (std::vector<int>{3, 1, 2, 0}));
}

// ------------------------------------------------------------ exact timing

ExecutionConfig file_config(int chunks) {
  ExecutionConfig config;
  config.chunk_size = 1.0;
  config.total_chunks = chunks;
  config.emission_rate = 0.0;  // everything available at t = 0
  config.warmup_chunks = 0;
  return config;
}

TEST(Execution, ChainDeliversAtExactPipeTiming) {
  Execution exec(file_config(3));
  const int source = exec.add_node(1.0);
  const int a = exec.add_node(1.0);
  const int b = exec.add_node(0.0);
  exec.set_edge(source, a, 1.0);
  exec.set_edge(a, b, 1.0);
  exec.run_to_completion();
  // Serial unit-rate pipes: A gets chunk k at k + 1; B pipelines one hop
  // behind, its last chunk lands at 4.
  EXPECT_DOUBLE_EQ(exec.completion_time(a), 3.0);
  EXPECT_DOUBLE_EQ(exec.completion_time(b), 4.0);
  EXPECT_EQ(exec.delivered(a), 3);
  EXPECT_EQ(exec.delivered(b), 3);
  EXPECT_EQ(exec.delivered_chunks(), 6u);
  EXPECT_EQ(exec.losses(), 0u);
  EXPECT_EQ(exec.duplicates(), 0u);
}

TEST(Execution, LatencyPipelinesThroughPropagation) {
  ExecutionConfig config = file_config(4);
  config.latency = 0.25;
  Execution exec(config);
  const int source = exec.add_node(1.0);
  const int a = exec.add_node(0.0);
  exec.set_edge(source, a, 1.0);
  exec.run_to_completion();
  // The pipe frees at transmission end, so chunks pipeline through the
  // propagation delay: completion shifts by one latency, not four.
  EXPECT_DOUBLE_EQ(exec.completion_time(a), 4.25);
}

TEST(Execution, RarestFirstSplitsParentsWithoutDuplicates) {
  Execution exec(file_config(40));
  const int source = exec.add_node(2.0);
  const int a = exec.add_node(1.0);
  const int b = exec.add_node(1.0);
  const int c = exec.add_node(0.0);
  exec.set_edge(source, a, 1.0);
  exec.set_edge(source, b, 1.0);
  exec.set_edge(a, c, 1.0);
  exec.set_edge(b, c, 1.0);
  exec.run_to_completion();
  // Both parents receive the full stream at rate 1, so C is availability
  // bound: chunk k exists upstream at time k + 1 and crosses one hop later.
  // The point: two pipes race for every chunk, yet the in-flight
  // reservations mean each chunk crosses to C exactly once.
  EXPECT_EQ(exec.delivered(c), 40);
  EXPECT_EQ(exec.duplicates(), 0u);
  EXPECT_GE(exec.completion_time(c), 40.0);
  EXPECT_LE(exec.completion_time(c), 42.0);
}

TEST(Execution, WindowBackpressureStallsButDelivers) {
  ExecutionConfig config = file_config(10);
  config.receiver_window = 1;
  config.latency = 0.5;  // keeps the window occupied while propagating
  Execution exec(config);
  const int source = exec.add_node(1.0);
  const int a = exec.add_node(0.0);
  exec.set_edge(source, a, 1.0);
  exec.run_to_completion();
  EXPECT_EQ(exec.delivered(a), 10);
  EXPECT_GT(exec.hol_stalls(), 0u);
  // Window 1 + latency 0.5 serializes chunk k's arrival before chunk k+1's
  // send: one chunk per 1.5s instead of 1s.
  EXPECT_NEAR(exec.completion_time(a), 10.0 * 1.5 - 0.5 + 0.5, 1e-9);
}

TEST(Execution, LossRetransmitsAndReplaysBitIdentically) {
  const auto run = [] {
    ExecutionConfig config = file_config(50);
    config.loss_rate = 0.3;
    config.seed = 99;
    Execution exec(config);
    const int source = exec.add_node(1.0);
    const int a = exec.add_node(1.0);
    const int b = exec.add_node(0.0);
    exec.set_edge(source, a, 1.0);
    exec.set_edge(a, b, 1.0);
    exec.run_to_completion();
    return exec;
  };
  const Execution first = run();
  const Execution second = run();
  EXPECT_EQ(first.delivered(2), 50);
  EXPECT_GT(first.losses(), 0u);
  EXPECT_EQ(first.losses(), first.retransmits());
  EXPECT_EQ(first.losses(), second.losses());
  EXPECT_DOUBLE_EQ(first.completion_time(1), second.completion_time(1));
  EXPECT_DOUBLE_EQ(first.completion_time(2), second.completion_time(2));
}

TEST(Execution, RejectsMalformedConfigAndOps) {
  ExecutionConfig config;
  config.chunk_size = 0.0;
  EXPECT_THROW(Execution{config}, std::invalid_argument);
  config = ExecutionConfig{};
  config.loss_rate = 0.99;
  EXPECT_THROW(Execution{config}, std::invalid_argument);
  config = ExecutionConfig{};
  config.overtake_factor = 1.0;
  EXPECT_THROW(Execution{config}, std::invalid_argument);

  Execution exec(file_config(1));
  const int source = exec.add_node(1.0);
  const int a = exec.add_node(1.0);
  EXPECT_THROW(exec.set_edge(source, source, 1.0), std::invalid_argument);
  EXPECT_THROW(exec.set_edge(source, 7, 1.0), std::invalid_argument);
  EXPECT_THROW(exec.remove_node(source), std::invalid_argument);
  exec.remove_node(a);
  EXPECT_THROW(exec.remove_node(a), std::invalid_argument);
  EXPECT_THROW(exec.run_until(-1.0), std::invalid_argument);
}

// ----------------------------------------------------------- live patching

TEST(Execution, LivePatchDropsInflightAndSplicesNewEdges) {
  ExecutionConfig config;
  config.chunk_size = 1.0;
  config.total_chunks = 30;
  config.emission_rate = 1.0;  // paced stream
  config.warmup_chunks = 0;
  // Propagation latency puts chunks *in the wire* (sent, not yet arrived)
  // at the removal instant: their window slots and reservations must be
  // released with the pipes, or B would wait on them forever.
  config.latency = 0.5;
  Execution exec(config);
  const int source = exec.add_node(1.0);
  const int a = exec.add_node(1.0);
  const int b = exec.add_node(0.0);
  exec.set_edge(source, a, 1.0);
  exec.set_edge(a, b, 1.0);
  exec.run_until(10.25);  // mid-propagation: a chunk is in flight to B
  const int delivered_before = exec.delivered(b);
  EXPECT_GT(delivered_before, 0);
  // A departs mid-stream; the repaired overlay feeds B from the source.
  // Chunks in flight on A's pipes drop, their reservations release, and B
  // re-requests them over the spliced edge — the stream never restarts.
  exec.remove_node(a);
  EXPECT_FALSE(exec.node_alive(a));
  exec.reconcile_edges({{source, b, 1.0}});
  exec.run_to_completion();
  EXPECT_EQ(exec.delivered(b), 30);
  EXPECT_GE(exec.completion_time(b), 30.0);
  EXPECT_TRUE(exec.validate().empty());
}

TEST(Execution, LateJoinerStartsAtTheLiveEdge) {
  ExecutionConfig config;
  config.chunk_size = 1.0;
  config.total_chunks = 20;
  config.emission_rate = 1.0;
  config.warmup_chunks = 0;
  Execution exec(config);
  const int source = exec.add_node(2.0);
  const int a = exec.add_node(1.0);
  exec.set_edge(source, a, 1.0);
  exec.run_until(10.0);
  const int late = exec.add_node(0.0);
  exec.set_edge(source, late, 1.0);
  exec.run_to_completion();
  const NodeProgress progress = exec.progress(late);
  EXPECT_GT(progress.skipped, 0);
  EXPECT_EQ(progress.delivered, 20 - progress.skipped);
  EXPECT_GE(progress.completion_time, 0.0);
  EXPECT_EQ(exec.delivered(a), 20);
}

// ------------------------------------------------------- effective world

TEST(Execution, EffectiveCapacityThrottlesProportionally) {
  // Nominal plan: two rate-1 pipes out of the source. A brownout capping
  // the source at 1.0 halves every transmission's wire rate, so the run
  // takes twice as long — and removing the cap restores nominal timing.
  const auto run = [](double cap) {
    Execution exec(file_config(4));
    const int source = exec.add_node(2.0);
    const int a = exec.add_node(0.0);
    const int b = exec.add_node(0.0);
    exec.set_edge(source, a, 1.0);
    exec.set_edge(source, b, 1.0);
    if (cap > 0.0) exec.set_effective_capacity(source, cap);
    exec.run_to_completion();
    return std::max(exec.completion_time(a), exec.completion_time(b));
  };
  EXPECT_DOUBLE_EQ(run(-1.0), 4.0);
  EXPECT_DOUBLE_EQ(run(1.0), 8.0);
  // A plan refitted inside the cap is not throttled at all: that is the
  // lever the adaptive control plane pulls.
  Execution refit(file_config(4));
  const int source = refit.add_node(2.0);
  const int a = refit.add_node(0.0);
  refit.set_effective_capacity(source, 1.0);
  refit.set_edge(source, a, 1.0);  // planned egress == effective capacity
  refit.run_to_completion();
  EXPECT_DOUBLE_EQ(refit.completion_time(a), 4.0);
}

TEST(Execution, EgressProfileClassesAndEdgeOverride) {
  ExecutionConfig config = file_config(60);
  config.seed = 17;
  const auto run = [&](bool lossy_egress, bool clean_override) {
    Execution exec(config);
    const int source = exec.add_node(1.0);
    const int a = exec.add_node(0.0);
    if (lossy_egress) exec.set_egress_profile(source, {0.3, 0.0, 0.0});
    if (clean_override) exec.set_edge_profile(source, a, LinkProfile{});
    exec.set_edge(source, a, 1.0);
    exec.run_to_completion();
    return exec;
  };
  const Execution clean = run(false, false);
  EXPECT_EQ(clean.losses(), 0u);
  const Execution lossy = run(true, false);
  EXPECT_GT(lossy.losses(), 0u);
  const std::vector<EdgeStats> stats = lossy.edge_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].lost, lossy.losses());
  EXPECT_EQ(stats[0].delivered, 60u);
  EXPECT_EQ(stats[0].sent, 60u + lossy.losses());
  // A per-edge override beats the sender's egress class.
  const Execution overridden = run(true, true);
  EXPECT_EQ(overridden.losses(), 0u);
}

TEST(Execution, RateJitterSlowsButReplaysDeterministically) {
  ExecutionConfig config = file_config(50);
  config.seed = 23;
  const auto run = [&] {
    Execution exec(config);
    const int source = exec.add_node(1.0);
    const int a = exec.add_node(0.0);
    exec.set_egress_profile(source, {0.0, 0.0, 0.5});
    exec.set_edge(source, a, 1.0);
    exec.run_to_completion();
    return exec.completion_time(1);
  };
  const double jittered = run();
  EXPECT_GT(jittered, 50.0);       // strictly slower than nominal
  EXPECT_LT(jittered, 2.0 * 50.0); // jitter is bounded below 2x
  EXPECT_DOUBLE_EQ(jittered, run());
}

TEST(Execution, ScanIndexPicksMatchTheLinearScan) {
  // Differential: the per-rarity bucket index must pick the identical
  // chunk as the linear window scan at every send — identical event
  // streams, to the bit, loss and all.
  util::Xoshiro256 rng(9);
  const Instance platform =
      gen::random_instance({60, 0.6, gen::Dist::kUnif100}, rng);
  const AcyclicSolution solution = solve_acyclic(platform);
  ExecutionConfig config;
  config.chunk_size = solution.throughput * 0.05;
  config.total_chunks = 200;
  config.emission_rate = solution.throughput;
  config.loss_rate = 0.05;
  config.seed = 77;
  const auto run = [&](bool indexed) {
    config.use_scan_index = indexed;
    Execution exec(platform, solution.scheme, config);
    exec.run_to_completion();
    return exec;
  };
  const Execution with_index = run(true);
  const Execution without = run(false);
  ASSERT_EQ(with_index.num_nodes(), without.num_nodes());
  for (int node = 1; node < with_index.num_nodes(); ++node) {
    EXPECT_DOUBLE_EQ(with_index.completion_time(node),
                     without.completion_time(node))
        << "node " << node;
  }
  EXPECT_EQ(with_index.losses(), without.losses());
  EXPECT_EQ(with_index.duplicates(), without.duplicates());
  EXPECT_EQ(with_index.hol_stalls(), without.hol_stalls());
}

TEST(Execution, SharpUpwardRerateRestartsTheInFlightTransmission) {
  ExecutionConfig config = file_config(5);
  Execution exec(config);
  const int source = exec.add_node(10.0);
  const int a = exec.add_node(0.0);
  exec.set_edge(source, a, 0.01);  // a trickle: 100 s per chunk
  exec.run_until(1.0);             // mid-glacial-transmission
  EXPECT_EQ(exec.delivered(a), 0);
  // Re-planned as an artery: the squatting transmission restarts at the
  // new rate instead of blocking the wire for another 99 virtual seconds.
  exec.set_edge(source, a, 10.0);
  exec.run_to_completion();
  EXPECT_EQ(exec.delivered(a), 5);
  EXPECT_LT(exec.completion_time(a), 2.0);
}

// ------------------------------------------ reconcile across commits

/// Appends `value` at full precision, so the digest moves whenever any
/// logged double moves in its last bit.
void put(std::string& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g ", value);
  out += buf;
}

void put(std::string& out, std::uint64_t value) {
  out += std::to_string(value) + " ";
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Pins one seeded sequence of reconcile_edges calls between stream
/// advances: pipes added, removed, kept, re-rated down and sharply up
/// (past the restart factor), duplicated keys (the last positive rate
/// wins), rates at or below the removal threshold, and unsorted input,
/// plus a crash and a departure mid-run. The digest covers every pipe's
/// counters after each call, every node's delivered count and the final
/// report, so a change in which pipes are created, in what order (each
/// creation forks the next loss stream) or at what rate fails here. A
/// deliberate behaviour change updates kDigest and says why in its commit.
TEST(Dataplane, ReconcileSequenceDigestIsPinned) {
  ExecutionConfig config;
  config.chunk_size = 1.0;
  config.emission_rate = 6.0;
  config.latency = 0.02;
  config.loss_rate = 0.05;
  config.receiver_window = 4;
  config.warmup_chunks = 0;
  config.seed = 97;
  Execution exec(config);
  constexpr int kNodes = 14;
  for (int i = 0; i < kNodes; ++i) {
    exec.add_node(i == 0 ? 60.0 : 30.0 + 5.0 * (i % 4));
  }
  util::Xoshiro256 rng(2024);
  std::vector<std::tuple<int, int, double>> live;  // last call's survivors
  std::vector<EdgeStats> stats;
  std::string out;
  double t = 0.0;
  for (int round = 0; round < 60; ++round) {
    if (round == 20) exec.crash_node(5);
    if (round == 24) exec.remove_node(5);
    if (round == 40) exec.remove_node(9);
    const auto usable = [&exec](int node) { return exec.node_alive(node); };
    std::vector<std::tuple<int, int, double>> desired;
    for (const auto& [from, to, rate] : live) {
      if (!usable(from) || !usable(to)) continue;
      const double roll = rng.uniform();
      if (roll < 0.45) {
        desired.emplace_back(from, to, rate);  // unchanged
      } else if (roll < 0.6) {
        desired.emplace_back(from, to, rate * 0.5);  // re-rated down
      } else if (roll < 0.7) {
        desired.emplace_back(from, to, rate * 3.0);  // past the restart factor
      } else if (roll < 0.75) {
        desired.emplace_back(from, to, 1e-13);  // at the removal threshold
      }  // else dropped
    }
    for (int extra = 0; extra < 8; ++extra) {
      const int from = static_cast<int>(rng.below(kNodes));
      const int to = 1 + static_cast<int>(rng.below(kNodes - 1));
      if (from == to || !usable(from) || !usable(to)) continue;
      desired.emplace_back(from, to, rng.uniform(0.2, 2.5));
    }
    if (!desired.empty()) {
      // Duplicates: a later positive rate overrides, a later rate at or
      // below the threshold does not.
      const auto [from, to, rate] =
          desired[static_cast<std::size_t>(rng.below(desired.size()))];
      desired.emplace_back(from, to, rate + 0.25);
      desired.emplace_back(from, to, 0.0);
    }
    for (std::size_t i = desired.size(); i > 1; --i) {
      std::swap(desired[i - 1],
                desired[static_cast<std::size_t>(rng.below(i))]);
    }
    exec.reconcile_edges(desired);
    t += 0.35;
    exec.run_until(t);
    const std::vector<std::string> violations = exec.validate();
    ASSERT_TRUE(violations.empty()) << "round " << round << ": "
                                    << violations.front();

    exec.edge_stats_into(stats);
    live.clear();
    out += "round " + std::to_string(round) + "\n";
    for (const EdgeStats& e : stats) {
      live.emplace_back(e.from, e.to, e.rate);
      out += std::to_string(e.from) + ">" + std::to_string(e.to) + " ";
      put(out, e.rate);
      put(out, e.busy_time);
      put(out, e.completed);
      put(out, e.sent);
      put(out, e.delivered);
      put(out, e.lost);
      out += e.busy ? "1 " : "0 ";
      put(out, e.pending_duration);
      put(out, e.attempts);
      put(out, e.window_stalls);
      put(out, e.no_chunk);
      out += "\n";
    }
    for (int node = 0; node < exec.num_nodes(); ++node) {
      out += std::to_string(exec.delivered(node)) + " ";
    }
    out += "\n";
  }
  const ExecutionReport report = exec.report(6.0);
  put(out, report.now);
  out += std::to_string(report.emitted) + " ";
  put(out, report.delivered_chunks);
  put(out, report.losses);
  put(out, report.retransmits);
  put(out, report.hol_stalls);
  put(out, report.duplicates);
  put(out, report.achieved_rate);
  put(out, report.stretch);
  for (const NodeProgress& node : report.nodes) {
    out += std::to_string(node.id) + (node.alive ? " 1 " : " 0 ") +
           std::to_string(node.delivered) + " " +
           std::to_string(node.skipped) + " ";
    put(out, node.joined);
    put(out, node.completion_time);
    put(out, node.steady_rate);
    out += std::to_string(node.max_buffer) + "\n";
  }
  EXPECT_GT(report.losses, 0u);
  EXPECT_GT(report.delivered_chunks, 0u);

  constexpr std::uint64_t kDigest = 0x7ced7a612fa3dd31ULL;
  char actual[24];
  std::snprintf(actual, sizeof(actual), "0x%016" PRIx64, fnv1a(out));
  EXPECT_EQ(fnv1a(out), kDigest) << "digest " << actual << " over "
                                 << out.size() << " bytes";
}

// ------------------------------------------- acceptance: plan vs achieved

TEST(DataPlaneAcceptance, Achieves95PercentOfVerifiedThroughputOn500Nodes) {
  util::Xoshiro256 rng(2026);
  const Instance platform =
      gen::random_instance({500, 0.6, gen::Dist::kUnif100}, rng);
  const AcyclicSolution solution = solve_acyclic(platform);
  ASSERT_TRUE(solution.scheme.is_acyclic());
  const double verified = flow::verify_throughput(solution.scheme).throughput;
  ASSERT_NEAR(verified, solution.throughput, 1e-6 * solution.throughput);

  ExecutionConfig config;
  config.chunk_size = solution.throughput * 0.05;  // 20 chunks per second
  config.total_chunks = 300;
  config.emission_rate = solution.throughput;
  config.warmup_chunks = 60;
  Execution exec(platform, solution.scheme, config);
  exec.run_to_completion();

  const ExecutionReport report = exec.report(solution.throughput);
  // Lossless, zero latency: every node must sustain >= 0.95x the verified
  // fluid rate chunk-by-chunk...
  EXPECT_GE(report.achieved_rate, 0.95 * verified);
  // ... and the data plane can never beat the flow bound (small slack for
  // the windowed empirical measurement).
  EXPECT_LE(report.achieved_rate, verified * 1.02 + 1e-9);
  EXPECT_LE(report.stretch, 1.0 / 0.95);
  EXPECT_EQ(report.losses, 0u);
  for (int node = 1; node < exec.num_nodes(); ++node) {
    EXPECT_EQ(exec.delivered(node), 300) << "node " << node;
    EXPECT_GE(exec.completion_time(node), 0.0);
  }
  EXPECT_TRUE(exec.validate().empty());
}

// --------------------------------------- runtime execution mode acceptance

runtime::ScenarioScript churn_script(std::uint64_t seed) {
  runtime::Scenario scenario(6.0, seed);
  scenario.source(2000.0)
      .population({72, 0.7, gen::Dist::kUnif100})
      .population({48, 0.3, gen::Dist::kLogNormal1})
      .channel({0.0, -1.0, /*weight=*/2.0, /*fraction=*/0.4})
      .channel({0.0, -1.0, 1.0, 0.2})
      .channel({0.2, -1.0, 1.0, 0.15})
      .poisson_channels({0.8, 1.5, 1.0, 0.1})
      .flash_crowd({1.8, 24, {0, 0.8, gen::Dist::kUnif100}, 0.7, 1.2})
      .diurnal_churn({3.0, 0.8, 8.0, 0.45, {0, 0.5, gen::Dist::kUnif100}})
      .correlated_failure({4.5, 0.10})
      .renegotiate_every(1.2, 0.95);
  return scenario.build();
}

runtime::RuntimeConfig execution_config(std::size_t planner_threads) {
  runtime::RuntimeConfig config;
  config.collect_timing = false;
  config.broker_headroom = 0.05;
  config.planner.threads = planner_threads;
  config.dataplane.execute = true;
  config.dataplane.execution.chunk_size = 4.0;
  return config;
}

TEST(DataPlaneAcceptance, ChurningRuntimeSustains85PercentWithLivePatches) {
  const runtime::ScenarioScript script = churn_script(7);
  runtime::RuntimeConfig config = execution_config(0);
  runtime::Runtime runtime(config, script.source_bandwidth,
                           script.initial_peers);
  runtime.run(script.events);
  const std::vector<runtime::StreamReport> drained = runtime.drain(6.0);
  EXPECT_FALSE(drained.empty());
  ASSERT_GT(runtime.stream_log().size(), drained.size());  // closes happened
  ASSERT_GT(runtime.metrics().counter("dataplane.delivered"), 1000u);

  int judged = 0;
  for (const runtime::StreamReport& report : runtime.stream_log()) {
    // Streams too short to emit a meaningful number of chunks don't make
    // a ratio worth judging.
    if (report.expected_chunks < 10.0) continue;
    ++judged;
    EXPECT_GE(report.sustained_ratio, 0.85)
        << "channel " << report.channel << " open at " << report.open_time;
    EXPECT_TRUE(report.rate_within_verified) << "channel " << report.channel;
  }
  EXPECT_GT(judged, 0);
  EXPECT_EQ(runtime.metrics().counter("dataplane.rate_audit_failures"), 0u);
  // The churn actually exercised live patching.
  EXPECT_GT(runtime.metrics().counter("repairs.incremental") +
                runtime.metrics().counter("repairs.full"),
            0u);

  // Every exported statistic of the chunk latency describes one (the
  // lifetime) distribution, so the order statistics nest.
  const obs::Sketch* latency =
      runtime.metrics().sketch("dataplane.chunk_latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), runtime.metrics().counter("dataplane.delivered"));
  EXPECT_LE(latency->min(), latency->quantile(0.50));
  EXPECT_LE(latency->quantile(0.50), latency->quantile(0.90));
  EXPECT_LE(latency->quantile(0.90), latency->quantile(0.99));
  EXPECT_LE(latency->quantile(0.99), latency->max());

  // Closed channels leave no channel.N.* series behind.
  const obs::RollupSnapshot snap = runtime.metrics().snapshot();
  for (std::size_t k = 0; k + drained.size() < runtime.stream_log().size();
       ++k) {
    const std::string prefix =
        "channel." + std::to_string(runtime.stream_log()[k].channel) + ".";
    for (const auto& [name, cell] : snap.gauges) {
      EXPECT_NE(name.rfind(prefix, 0), 0u) << name;
    }
  }
}

TEST(DataPlaneAcceptance, ReplayIsIdenticalAcrossRunsAndThreadCounts) {
  const runtime::ScenarioScript script = churn_script(11);
  struct Outcome {
    std::string snapshot;
    std::vector<runtime::StreamReport> streams;
  };
  const auto run = [&](std::size_t planner_threads) {
    runtime::Runtime runtime(execution_config(planner_threads),
                             script.source_bandwidth, script.initial_peers);
    runtime.run(script.events);
    runtime.drain(6.0);
    return Outcome{runtime.metrics().snapshot().to_string(false),
                   runtime.stream_log()};
  };
  const Outcome base = run(1);
  const Outcome again = run(1);
  const Outcome threaded = run(4);

  // Identical dataplane.* metric snapshots (timing.* excluded) across two
  // runs and across planner thread counts...
  EXPECT_EQ(base.snapshot, again.snapshot);
  EXPECT_EQ(base.snapshot, threaded.snapshot);
  EXPECT_NE(base.snapshot.find("counter dataplane.delivered"),
            std::string::npos);
  EXPECT_NE(base.snapshot.find("sketch dataplane.chunk_latency"),
            std::string::npos);

  // ... and identical per-stream outcomes, chunk for chunk.
  ASSERT_EQ(base.streams.size(), threaded.streams.size());
  for (std::size_t i = 0; i < base.streams.size(); ++i) {
    const runtime::StreamReport& a = base.streams[i];
    const runtime::StreamReport& b = threaded.streams[i];
    EXPECT_EQ(a.channel, b.channel);
    EXPECT_EQ(a.emitted, b.emitted);
    EXPECT_EQ(a.delivered_chunks, b.delivered_chunks);
    EXPECT_DOUBLE_EQ(a.sustained_ratio, b.sustained_ratio);
    EXPECT_DOUBLE_EQ(a.achieved_rate, b.achieved_rate);
  }
}

TEST(DataPlaneAcceptance, PerNodeCompletionTimesReplayIdentically) {
  // Two independent executions of the same planned overlay: every node's
  // completion time must match to the bit.
  util::Xoshiro256 rng(5);
  const Instance platform =
      gen::random_instance({120, 0.6, gen::Dist::kUnif100}, rng);
  const AcyclicSolution solution = solve_acyclic(platform);
  ExecutionConfig config;
  config.chunk_size = solution.throughput * 0.05;
  config.total_chunks = 200;
  config.emission_rate = solution.throughput;
  config.loss_rate = 0.05;  // loss in the mix: the rng must replay too
  config.seed = 31;
  const auto run = [&] {
    Execution exec(platform, solution.scheme, config);
    exec.run_to_completion();
    return exec;
  };
  const Execution first = run();
  const Execution second = run();
  ASSERT_EQ(first.num_nodes(), second.num_nodes());
  for (int node = 1; node < first.num_nodes(); ++node) {
    EXPECT_DOUBLE_EQ(first.completion_time(node), second.completion_time(node))
        << "node " << node;
  }
  EXPECT_EQ(first.losses(), second.losses());
  EXPECT_EQ(first.hol_stalls(), second.hol_stalls());
}

}  // namespace
}  // namespace bmp::dataplane
