// Live-streaming scenario (the paper's §I motivation: CoolStreaming /
// PPLive / SplitStream-class systems): a swarm of peers with
// PlanetLab-like uplinks, most of them behind NATs, wants to watch a live
// stream at the best sustainable rate.
//
// Pipeline demonstrated:
//   platform -> optimal acyclic overlay (Thm 4.1)
//            -> broadcast-tree decomposition (§II.C)
//            -> randomized useful-piece streaming simulation (Massoulié)
//            -> per-peer quality report (rate, delay, TCP connections)
//            -> chunk-level execution (dataplane::) of the same overlay:
//               the planned rate, actually delivered chunk by chunk, then
//               stress-tested under packet loss and propagation latency.
#include <fstream>
#include <iostream>

#include "bmp/baselines/baselines.hpp"
#include "bmp/bmp.hpp"
#include "bmp/dataplane/execution.hpp"
#include "bmp/gen/generator.hpp"
#include "bmp/net/overlay.hpp"
#include "bmp/obs/export.hpp"
#include "bmp/sim/massoulie.hpp"
#include "bmp/trees/arborescence.hpp"
#include "bmp/util/table.hpp"
#include "bench_util.hpp"

int main(int argc, char** argv) {
  // Shared observability CLI (benchutil::CommonCli): --json/--profile as
  // everywhere else, plus --metrics <path> for the final chunk-execution
  // counters and latency histogram in Prometheus exposition format.
  bmp::benchutil::CommonCli cli(argc, argv);
  const bmp::obs::PhaseScope example_scope(cli.profiler(), "example/live_streaming");
  using bmp::util::Table;
  bmp::util::Xoshiro256 rng(2026);

  // 30 peers, 70% NAT'd (typical residential swarm), PlanetLab-like uplinks.
  const bmp::Instance swarm = bmp::gen::random_instance(
      {/*size=*/30, /*p_open=*/0.3, bmp::gen::Dist::kPlanetLab}, rng);
  std::cout << "swarm: " << swarm.n() << " open peers, " << swarm.m()
            << " guarded peers, source uplink " << swarm.b(0) << " Mbit/s\n";

  const double t_star = bmp::cyclic_upper_bound(swarm);
  const bmp::AcyclicSolution sol = bmp::solve_acyclic(swarm);
  std::cout << "max stream rate: cyclic bound " << t_star << ", acyclic overlay "
            << sol.throughput << " Mbit/s ("
            << 100.0 * sol.throughput / t_star << "% of optimal)\n";

  // Materialize as TCP connection lists (QoS caps per connection).
  const bmp::net::Overlay overlay = bmp::net::Overlay::from_scheme(
      swarm, sol.scheme, bmp::net::Connectivity::from_instance(swarm));
  std::cout << "overlay: " << overlay.connections().size()
            << " TCP connections, max fan-out " << sol.scheme.max_out_degree()
            << " (SplitStream-class systems typically need k x this)\n\n";

  // §II.C decomposition: which data goes down which edge.
  const auto trees = bmp::trees::decompose_acyclic(sol.scheme, sol.throughput);
  std::cout << "stream split into " << trees.trees.size()
            << " weighted broadcast trees (sub-streams):\n";
  for (std::size_t k = 0; k < std::min<std::size_t>(4, trees.trees.size()); ++k) {
    std::cout << "  tree " << k << ": " << trees.trees[k].weight << " Mbit/s\n";
  }
  if (trees.trees.size() > 4) std::cout << "  ...\n";

  // Stream at 90% of the overlay capacity and measure per-peer quality.
  const double rate = 0.9 * sol.throughput;
  const bmp::sim::SimResult sim = bmp::sim::simulate_random_useful(
      sol.scheme, {rate / sol.throughput, 600.0, 150.0, 7, true});
  // (simulation uses normalized time: 1 piece == 1 throughput-second)

  Table t({"peer", "class", "uplink", "connections", "rate (norm)", "delay"});
  const int show = std::min(10, swarm.size() - 1);
  for (int i = 1; i <= show; ++i) {
    t.add_row({"C" + std::to_string(i),
               swarm.is_guarded(i) ? "guarded" : "open",
               Table::num(swarm.b(i), 1), Table::num(overlay.fan_out(i)),
               Table::num(sim.nodes[static_cast<std::size_t>(i)].rate, 3),
               Table::num(sim.nodes[static_cast<std::size_t>(i)].mean_delay, 1)});
  }
  t.print(std::cout);
  std::cout << "worst peer rate " << sim.min_rate << " of offered "
            << rate / sol.throughput << " (normalized)\n";

  // Compare with a SplitStream-like overlay on the same swarm.
  const auto ss = bmp::baselines::splitstream_like(swarm, 4, rng);
  std::cout << "\nSplitStream-like comparison: rate " << ss.throughput
            << " Mbit/s (" << 100.0 * ss.throughput / t_star
            << "% of optimal), max fan-out " << ss.scheme.max_out_degree()
            << "\n";

  // Chunk-level execution: stream 240 one-second chunks through the
  // planned overlay — every edge a rate-limited pipe, every peer a
  // rarest-first scheduler — and compare what each peer *achieved* against
  // the fluid rate the plan promises.
  bmp::dataplane::ExecutionConfig exec_config;
  exec_config.chunk_size = sol.throughput;  // 1 chunk = 1 stream-second
  exec_config.total_chunks = 240;
  exec_config.emission_rate = sol.throughput;
  exec_config.warmup_chunks = 48;
  exec_config.collect_latencies = !cli.metrics.empty();
  bmp::obs::Hooks hooks;
  hooks.profiler = cli.profiler();
  bmp::dataplane::Execution exec(swarm, sol.scheme, exec_config, hooks);
  exec.run_to_completion();
  const bmp::dataplane::ExecutionReport clean = exec.report(sol.throughput);
  std::cout << "\nchunk execution (lossless): achieved "
            << clean.achieved_rate << " of planned " << sol.throughput
            << " Mbit/s (stretch " << clean.stretch << "), worst buffer "
            << [&] {
                 int worst = 0;
                 for (const auto& node : clean.nodes) {
                   worst = std::max(worst, node.max_buffer);
                 }
                 return worst;
               }()
            << " chunks\n";

  // The same stream over a lossy WAN: 2% per-transmission loss, 30 ms
  // links. Retransmits burn upload the fluid model never accounted for.
  exec_config.loss_rate = 0.02;
  exec_config.latency = 0.03;
  bmp::dataplane::Execution wan(swarm, sol.scheme, exec_config, hooks);
  wan.run_to_completion();
  const bmp::dataplane::ExecutionReport noisy = wan.report(sol.throughput);
  std::cout << "chunk execution (2% loss, 30ms): achieved "
            << noisy.achieved_rate << " Mbit/s, " << noisy.retransmits
            << " retransmits, " << noisy.hol_stalls << " head-of-line stalls\n";

  bool ok = true;
  if (!cli.metrics.empty()) {
    bmp::obs::ShardRegistry metrics;
    metrics.set("dataplane.planned_rate", sol.throughput);
    metrics.set("dataplane.achieved_rate", clean.achieved_rate);
    metrics.set("dataplane.achieved_rate_lossy", noisy.achieved_rate);
    metrics.set_counter("dataplane.delivered_chunks",
                        static_cast<std::uint64_t>(clean.delivered_chunks));
    metrics.set_counter("dataplane.retransmits_lossy", noisy.retransmits);
    metrics.set_counter("dataplane.hol_stalls_lossy", noisy.hol_stalls);
    for (const double latency : exec.drain_latencies()) {
      metrics.observe("dataplane.chunk_latency", latency);
    }
    std::ofstream out(cli.metrics);
    out << bmp::obs::to_prometheus(metrics.snapshot());
    if (out) {
      std::cout << "metrics written to " << cli.metrics << "\n";
    } else {
      std::cout << "[WARN] could not write " << cli.metrics << "\n";
      ok = false;
    }
  }
  return bmp::benchutil::finish(cli, "live_streaming", ok);
}
