// stream_chaos — the data path: a Runtime with chunk execution and the
// adaptive control plane on streams 3 concurrent channels to a 200-peer,
// two-class population through a brownout, light diurnal churn and a fixed
// mix of injected faults (2 crashes, a healing partition, one corrupting
// relay, a telemetry blackout and a planner outage), with the operator
// obs sinks attached: ShardRegistry telemetry, the SLO monitor and
// auto-sampled lineage. The run advances in fixed scenario-time slices;
// one op is one slice: its real events through Runtime::step, then a
// clock-only marker (an empty kNodeJoin) at the slice end. Everything up
// to the first fault is set-up.
#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bmp/engine/plan_cache.hpp"
#include "bmp/engine/planner.hpp"
#include "bmp/fault/fault.hpp"
#include "bmp/fault/injector.hpp"
#include "bmp/obs/lineage.hpp"
#include "bmp/obs/profiler.hpp"
#include "bmp/obs/rollup.hpp"
#include "bmp/runtime/runtime.hpp"
#include "bmp/util/rng.hpp"
#include "common.hpp"
#include "script.hpp"

namespace perfbench {
namespace {

using bmp::runtime::Event;
using bmp::runtime::EventType;

constexpr int kPeers = 200;
constexpr double kHorizon = 9.0;
constexpr double kFirstFault = 2.0;  ///< set-up ends here
constexpr double kSlice = 0.025;     ///< scenario seconds per op
constexpr int kSlices = 280;         ///< (kHorizon - kFirstFault) / kSlice
/// Scripted leaves and brownouts all land before this instant, the crashes
/// after it: the crash detector also evicts live peers it finds silent
/// (children of a crashed relay), and a later scripted leave or restore of
/// such a peer would be refused as an event on a dead node.
constexpr double kChurnEnd = 6.0;
constexpr int kChurnLeaves = 8;
constexpr int kChurnJoins = 8;
constexpr double kFractions[] = {0.3, 0.25, 0.2};
constexpr int kMinEpisodes = 5;  ///< worst_ratio's fixed episode set
constexpr int kTracedEpisodes = 2;
constexpr std::size_t kLineageBudget = 1u << 13;

struct Episode {
  bmp::runtime::ScenarioScript script;
  double chunk_size = 1.0;
};

/// Inputs of one episode. Peers are mostly open (22% guarded): with the
/// runtime benches' 46% guarded mix, the incremental repair's
/// guarded-receiver reroute pass makes about 2% of single-peer departures
/// take 0.1-10 s, and those few ops alone set a run's throughput and tail.
/// The fault plan has a fixed shape — counts, durations, partition and
/// blackout sizes — with seeded victims and start times;
/// fault::Injector::random_plan would draw the counts and sizes from the
/// seed too, and with them the cost of the post-heal catch-up.
Episode make_episode(std::uint64_t seed) {
  ScriptBuilder b(seed, 2000.0, kPeers,
                  {{0.6, 0.9, bmp::gen::Dist::kUnif100},
                   {0.4, 0.7, bmp::gen::Dist::kLogNormal1}});
  bmp::util::Xoshiro256& rng = b.rng();
  const std::vector<int> victims = b.reserve(2 + kPeers / 20 + 1 + kPeers / 33);
  for (int c = 0; c < 3; ++c) b.open_channel(0.0, c, 1.0, kFractions[c]);
  b.brownout(rng.uniform(2.8, 3.2), 2.5, 0.10, 0.25);
  const std::vector<double> times =
      b.diurnal_times(kChurnLeaves + kChurnJoins, 0.5, kChurnEnd, kHorizon, 0.5);
  const std::vector<bool> joins = b.shuffled_mix(kChurnJoins, kChurnLeaves);
  for (std::size_t k = 0; k < times.size(); ++k) {
    if (joins[k]) {
      b.join(times[k], 1, {1.0, 0.5, bmp::gen::Dist::kUnif100});
    } else {
      b.leave(times[k]);
    }
  }
  Episode episode;
  episode.script = b.build();

  bmp::fault::FaultPlan plan;
  std::size_t next = 0;
  plan.corruptions.push_back({kFirstFault, kFirstFault + 3.0, victims[next++], 0.3});
  plan.crashes.push_back({rng.uniform(kChurnEnd + 0.2, kChurnEnd + 0.6), victims[next++]});
  plan.crashes.push_back({rng.uniform(kChurnEnd + 0.6, kChurnEnd + 1.0), victims[next++]});
  bmp::fault::PartitionSpec partition;
  partition.time = rng.uniform(2.5, 3.0);
  partition.heal_time = partition.time + 2.0;
  for (int k = 0; k < kPeers / 20; ++k) partition.group_b.push_back(victims[next++]);
  plan.partitions.push_back(partition);
  bmp::fault::BlackoutSpec blackout;
  blackout.time = rng.uniform(4.0, 4.5);
  blackout.end_time = blackout.time + 1.5;
  for (int k = 0; k < kPeers / 33; ++k) blackout.nodes.push_back(victims[next++]);
  plan.blackouts.push_back(blackout);
  const double outage = rng.uniform(3.5, 4.0);
  plan.planner_outages.push_back({outage, outage + 1.0});
  bmp::fault::Injector::inject(episode.script, plan);

  // Chunk size: the smallest channel emits ~40 chunks per scenario second
  // on the initial platform's acyclic optimum.
  std::vector<double> open;
  std::vector<double> guarded;
  for (const bmp::runtime::NodeSpec& peer : episode.script.initial_peers) {
    (peer.guarded ? guarded : open).push_back(peer.bandwidth);
  }
  const bmp::Instance platform(episode.script.source_bandwidth, std::move(open),
                               std::move(guarded));
  const double optimum = bmp::engine::Planner::plan_uncached(
                             platform, bmp::engine::Algorithm::kAcyclic, 0)
                             .throughput;
  episode.chunk_size = kFractions[2] * optimum / 40.0;
  return episode;
}

const char* handle_span(EventType type) {
  switch (type) {
    case EventType::kFault: return "runtime.handle.fault";
    case EventType::kNodeLeave: return "runtime.handle.node_leave";
    case EventType::kDegrade: return "runtime.handle.degrade";
    case EventType::kNodeJoin: return "runtime.handle.node_join";
    default: return "runtime.handle.other";
  }
}

struct Pass {
  Load load;
  Digest digest;
  std::uint64_t delivered = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t hol_stalls = 0;
  std::uint64_t control_actions = 0;
  std::uint64_t crashes_detected = 0;
  std::uint64_t corrupt_accepted = 0;
  std::size_t lineage_retained = 0;
  Checks checks;
  std::uint64_t episodes = 0;
  double wall_s = 0.0;
};

class StreamChaos {
 public:
  /// `spans`/`profiler` non-null: the traced pass, which also steps a
  /// clock-only marker just before every real event so the event's own
  /// step holds its handler and nothing else. `sinks` false detaches the
  /// telemetry, SLO and lineage sinks (the obs overhead baseline).
  StreamChaos(SpanLog* spans, bmp::obs::Profiler* profiler, bool sinks)
      : spans_(spans), profiler_(profiler), sinks_(sinks) {}

  Pass run(std::uint64_t seed, double budget_s, int episodes) {
    Pass pass;
    pass.wall_s = run_episodes(seed, budget_s, episodes, kMinEpisodes,
                               [&](std::uint64_t episode_seed) {
                                 run_episode(episode_seed, pass);
                               });
    return pass;
  }

 private:
  void run_episode(std::uint64_t seed, Pass& pass) {
    pass.load.begin_episode();
    const Clock::time_point setup_start = Clock::now();
    Episode episode;
    {
      const ScopedSpan span(spans_, "gen.script", 0);
      episode = make_episode(seed);
    }
    const bmp::runtime::ScenarioScript& script = episode.script;
    bmp::obs::ShardRegistry telemetry;
    bmp::obs::LineageConfig lineage_config;
    lineage_config.auto_sample_target = kLineageBudget;
    bmp::obs::LineageSink lineage(lineage_config);

    bmp::runtime::RuntimeConfig config;
    config.collect_timing = false;
    config.broker_headroom = 0.05;
    config.planner.threads = kPlannerThreads;
    config.dataplane.execute = true;
    config.dataplane.execution.chunk_size = episode.chunk_size;
    config.dataplane.execution.receiver_window = 16;
    config.control.enabled = true;
    config.control.slo_enabled = sinks_;
    config.telemetry = sinks_ ? &telemetry : nullptr;
    config.lineage = sinks_ ? &lineage : nullptr;
    config.profiler = profiler_;
    std::unique_ptr<bmp::runtime::Runtime> rt;
    std::size_t next = 0;
    {
      const ScopedSpan span(spans_, "runtime.setup", 0);
      rt = std::make_unique<bmp::runtime::Runtime>(
          config, script.source_bandwidth, script.initial_peers);
      while (next < script.events.size() && script.events[next].time < kFirstFault) {
        rt->step(script.events[next++]);
      }
      Event marker;
      marker.type = EventType::kNodeJoin;  // empty: clock only
      marker.time = kFirstFault;
      rt->step(marker);
    }
    pass.load.setup_seconds.push_back(seconds_since(setup_start));

    for (int slice = 1; slice <= kSlices; ++slice) {
      const double end_time = kFirstFault + slice * kSlice;
      const Clock::time_point begin = Clock::now();
      while (next < script.events.size() && script.events[next].time <= end_time) {
        const Event& event = script.events[next++];
        if (spans_ == nullptr) {
          rt->step(event);
          continue;
        }
        step_marker(*rt, event.time);
        const Clock::time_point handle = Clock::now();
        rt->step(event);
        spans_->add(handle_span(event.type), op_id_, handle, Clock::now());
      }
      step_marker(*rt, end_time);
      const Clock::time_point end = Clock::now();
      ++op_id_;
      check_slice(*rt, pass, std::chrono::duration<double>(end - begin).count());
    }

    // Execution counters must be read before drain() releases the streams.
    for (int c = 0; c < 3; ++c) {
      if (const bmp::dataplane::Execution* exec = rt->execution(c)) {
        pass.corrupt_accepted += exec->corrupted_accepted();
      }
    }
    std::vector<bmp::runtime::StreamReport> reports;
    {
      const ScopedSpan span(spans_, "runtime.drain", op_id_);
      reports = rt->drain(kHorizon);
    }
    for (const bmp::runtime::StreamReport& report : reports) {
      pass.digest.add(report.delivered_chunks);
      pass.digest.add(report.sustained_ratio);
      pass.delivered += report.delivered_chunks;
      pass.retransmits += report.retransmits;
      pass.duplicates += report.duplicates;
      pass.hol_stalls += report.hol_stalls;
      pass.load.quality(report.sustained_ratio);
      if (!report.rate_within_verified) pass.checks.fail("stream beat its verified rate");
    }
    for (const bmp::runtime::ControlReport& report : rt->control_log()) {
      pass.control_actions += static_cast<std::uint64_t>(
          report.demotions + report.restores + report.reroutes);
      pass.digest.add(report.time);
      pass.digest.add(static_cast<std::uint64_t>(report.channel));
      pass.digest.add(static_cast<std::uint64_t>(report.demotions));
      pass.digest.add(static_cast<std::uint64_t>(report.restores));
      pass.digest.add(static_cast<std::uint64_t>(report.reroutes));
      pass.digest.add(report.rate_after);
    }
    for (const bmp::runtime::ChurnReport& report : rt->churn_log()) {
      pass.digest.add(report.time);
      pass.digest.add(report.achieved_rate);
    }
    const bmp::engine::CacheStats stats = rt->planner().cache_stats();
    pass.digest.add(stats.hits);
    pass.digest.add(stats.misses);
    pass.crashes_detected += rt->metrics().counter("fault.crashes_detected");
    pass.lineage_retained = std::max(pass.lineage_retained, lineage.hops().size());
    ++pass.episodes;
  }

  void step_marker(bmp::runtime::Runtime& rt, double t) {
    Event marker;
    marker.type = EventType::kNodeJoin;  // empty: clock only
    marker.time = t;
    const Clock::time_point begin = Clock::now();
    rt.step(marker);
    if (spans_ != nullptr) spans_->add("dataplane.advance", op_id_, begin, Clock::now());
  }

  /// Per-slice correctness, outside the timed span: the cross-layer audit
  /// and no corrupted chunk accepted by a (payload-verifying) receiver.
  void check_slice(const bmp::runtime::Runtime& rt, Pass& pass, double seconds) {
    std::string error;
    std::vector<std::string> violations;
    {
      const ScopedSpan span(spans_, "runtime.validate", op_id_);
      violations = rt.validate();
    }
    if (!violations.empty()) error = "validate(): " + violations.front();
    for (int c = 0; c < 3 && error.empty(); ++c) {
      const bmp::dataplane::Execution* exec = rt.execution(c);
      if (exec != nullptr && exec->corrupted_accepted() > 0) {
        error = "a corrupted chunk was accepted";
      }
    }
    const std::uint64_t delivered = rt.metrics().counter("dataplane.delivered");
    pass.digest.add(delivered);
    pass.load.record(seconds, error.empty());
    if (!error.empty()) pass.checks.fail(error);
  }

  SpanLog* spans_;
  bmp::obs::Profiler* profiler_;
  bool sinks_;
  std::uint64_t op_id_ = 0;
};

}  // namespace

Result run_stream_chaos(const Options& options) {
  Result result;
  if (!options.trace) {
    StreamChaos workload(nullptr, nullptr, true);
    const Pass pass = workload.run(options.seed, options.seconds, 0);
    pass.checks.report(result);
    add_end_to_end(pass.load, kMinEpisodes, result);
    result.attempted = pass.load.attempted;
    result.failed = pass.load.attempted - pass.load.succeeded;
    std::ostringstream line;
    line << pass.episodes << " episodes, " << pass.load.attempted << " slices of "
         << kSlice << " scenario s, " << pass.delivered << " chunks delivered";
    result.notes.push_back(line.str());
    return result;
  }

  StreamChaos plain(nullptr, nullptr, true);
  const Pass base = plain.run(options.seed, 0.0, kTracedEpisodes);
  SpanLog spans;
  bmp::obs::Profiler profiler;
  StreamChaos traced(&spans, &profiler, true);
  const Pass pass = traced.run(options.seed, 0.0, kTracedEpisodes);
  StreamChaos bare(nullptr, nullptr, false);
  const Pass off = bare.run(options.seed, 0.0, kTracedEpisodes);
  base.checks.report(result);
  pass.checks.report(result);
  off.checks.report(result);
  result.attempted = pass.load.attempted;
  result.failed = pass.load.attempted - pass.load.succeeded;

  report_fidelity(base.digest.value() == pass.digest.value() &&
                      base.load.episode_worst == pass.load.episode_worst &&
                      base.load.succeeded == pass.load.succeeded,
                  result);

  const auto med = [&](const char* name) { return median(spans.durations(name)); };
  double marker_us = 0.0;
  for (const double us : spans.durations("dataplane.advance")) marker_us += us;
  const double delivered = static_cast<double>(std::max<std::uint64_t>(1, pass.delivered));
  const double episodes = static_cast<double>(std::max<std::uint64_t>(1, pass.episodes));
  const double attempts =
      static_cast<double>(profiler.counter("dataplane/scheduler", "attempts"));
  const double chunk_events =
      static_cast<double>(profiler.counter("dataplane/advance", "events"));
  const double profiled_chunks = static_cast<double>(
      std::max<std::uint64_t>(1, profiler.counter("dataplane/advance", "delivered")));
  result.metrics = {
      {"dataplane.advance_us", "us", med("dataplane.advance")},
      {"dataplane.ns_per_chunk", "ns", 1e3 * marker_us / delivered},
      {"dataplane.events_per_chunk", "ratio", chunk_events / profiled_chunks},
      {"dataplane.sched_no_chunk_ratio", "ratio",
       attempts > 0.0
           ? static_cast<double>(profiler.counter("dataplane/scheduler", "no_chunk")) / attempts
           : 0.0},
      {"dataplane.retransmit_ratio", "ratio", static_cast<double>(pass.retransmits) / delivered},
      {"dataplane.duplicate_ratio", "ratio", static_cast<double>(pass.duplicates) / delivered},
      {"dataplane.hol_stalls", "count/episode", static_cast<double>(pass.hol_stalls) / episodes},
      {"runtime.handle_us.fault", "us", med("runtime.handle.fault")},
      {"runtime.handle_us.node_leave", "us", med("runtime.handle.node_leave")},
      {"runtime.handle_us.degrade", "us", med("runtime.handle.degrade")},
      {"control.edge_samples", "count/episode",
       static_cast<double>(profiler.counter("runtime/control/decide", "edge_samples")) / episodes},
      {"control.actions", "count/episode", static_cast<double>(pass.control_actions) / episodes},
      {"fault.crashes_detected", "count/episode",
       static_cast<double>(pass.crashes_detected) / episodes},
      {"fault.corrupt_accepted", "count", static_cast<double>(pass.corrupt_accepted)},
      {"obs.overhead_ratio", "ratio", off.wall_s > 0.0 ? base.wall_s / off.wall_s : 0.0},
      {"obs.lineage_hops_retained", "count", static_cast<double>(pass.lineage_retained)},
      {"bench.tracing_overhead", "ratio", base.wall_s > 0.0 ? pass.wall_s / base.wall_s : 0.0},
      {"bench.attributed_share", "ratio",
       pass.wall_s > 0.0 ? spans.covered_us() / (1e6 * pass.wall_s) : 0.0},
  };

  std::ostringstream split;
  split.precision(4);
  split << "marker vs handler (us, p50): marker " << med("dataplane.advance")
        << ", fault " << med("runtime.handle.fault") << ", node_leave "
        << med("runtime.handle.node_leave") << ", degrade "
        << med("runtime.handle.degrade") << ", node_join "
        << med("runtime.handle.node_join") << "; " << pass.delivered
        << " chunks delivered";
  result.notes.push_back(split.str());
  return result;
}

}  // namespace perfbench
