#include "bmp/runtime/channel.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>

#include "bmp/obs/flight_recorder.hpp"
#include "bmp/obs/profiler.hpp"
#include "bmp/obs/trace.hpp"
#include "bmp/runtime/runtime.hpp"

namespace bmp::runtime {

namespace {

/// Every per-channel series, as `channel.<id>.<suffix>`. The stream's own
/// comes first: finalize() drops it with the execution; close drops all.
constexpr const char* kChannelSeries[] = {
    "dataplane.delivered",    "fraction",          "design_rate",
    "achieved_rate",          "control.stragglers", "control.degraded_edges",
    "control.overrides",      "slo.state"};

/// Control ticks spanned by the windowed sustained SLI: the worst node's
/// delivered delta over the emission promise across the last N ticks —
/// windowed (not cumulative), so a healed partition recovers to ok.
constexpr int kSloSustainedWindow = 4;

/// (from, to) packed into one integer that sorts like the pair (ids are
/// non-negative runtime ids).
std::uint64_t edge_key(int from, int to) {
  return static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32 |
         static_cast<std::uint32_t>(to);
}

bool edge_less(const control::EdgeSample& a, const control::EdgeSample& b) {
  return edge_key(a.from, a.to) < edge_key(b.from, b.to);
}

}  // namespace

Channel::Channel(const ChannelHost& host, int id, const Grant& grant,
                 double now)
    : host_(host), id_(id), grant_(grant) {
  const RuntimeConfig& config = host_.config;
  if (!config.dataplane.execute) return;
  // The operator's engine knobs pass through wholesale; the runtime owns
  // the stream lifecycle, so only these four are overridden.
  dataplane::ExecutionConfig exec_config = config.dataplane.execution;
  exec_config.total_chunks = 0;     // live stream: paced until close/drain
  exec_config.emission_rate = 0.0;  // set by sync once the plan exists
  exec_config.start_time = now;
  exec_config.seed = engine::mix64(
      config.dataplane.execution.seed ^
      static_cast<std::uint64_t>(id) * 0x9E3779B97F4A7C15ULL);
  exec_config.trace_id = id;
  open_time_ = now;
  execution_ = std::make_unique<dataplane::Execution>(exec_config, config);
  if (config.control.enabled) {
    controller_ =
        std::make_unique<control::Controller>(config.control.controller);
    last_control_time_ = now;
    if (config.control.slo_enabled) {
      slo_ = std::make_unique<obs::SloMonitor>(id, config.control.slo,
                                               config.recorder);
    }
  }
}

std::string Channel::series(const char* what) const {
  return "channel." + std::to_string(id_) + "." + what;
}

void Channel::erase_series() {
  for (const char* what : kChannelSeries) host_.metrics.erase(series(what));
}

void Channel::remap_slots(const std::vector<int>& caller) {
  const Instance& instance = session_->instance();
  node_of_slot_.resize(static_cast<std::size_t>(instance.size()));
  for (int slot = 0; slot < instance.size(); ++slot) {
    node_of_slot_[static_cast<std::size_t>(slot)] =
        caller[static_cast<std::size_t>(instance.original_id(slot))];
  }
}

void Channel::mark_stale(double when, const char* cause) {
  if (stale_since_ < 0.0) stale_since_ = when;
  host_.metrics.inc("fault.planner_faults");
  if (host_.config.recorder != nullptr) {
    host_.config.recorder->record(when, id_, "plan_stale", cause);
  }
}

void Channel::record(const engine::ChurnOutcome& outcome, double when,
                     const char* cause) {
  // The session wanted a full re-plan but the planner was down; it kept
  // its incremental repair until the outage ends.
  if (outcome.planner_fault) mark_stale(when, cause);
  // Verification telemetry: tier counts are deterministic (structure
  // decides the tier), so they live beside the repair counters; the
  // wall-clock cost goes under timing.* like every other latency.
  obs::ShardRegistry& m = host_.metrics;
  m.inc("verify.calls", static_cast<std::uint64_t>(outcome.verify_calls));
  m.inc("verify.tier_sweep", static_cast<std::uint64_t>(outcome.verify_sweep));
  m.inc("verify.tier_maxflow",
        static_cast<std::uint64_t>(outcome.verify_maxflow));
  if (host_.config.collect_timing) {
    m.observe("timing.verify.us", outcome.verify_us);
  }
}

void Channel::rebuild() {
  // Gather the alive population in runtime-id order, opens before guardeds
  // — the instance's caller-side numbering the slot map is derived from.
  std::vector<double> open_bw;
  std::vector<double> guarded_bw;
  std::vector<int> caller_ids{0};  // the source, the opens, then guardeds
  std::vector<int> guarded_ids;
  const std::vector<Node>& nodes = host_.nodes;
  for (int node = 1; node < static_cast<int>(nodes.size()); ++node) {
    const Node& info = nodes[static_cast<std::size_t>(node)];
    if (!info.alive()) continue;
    (info.guarded ? guarded_bw : open_bw)
        .push_back(info.bandwidth * grant_.fraction);
    (info.guarded ? guarded_ids : caller_ids).push_back(node);
  }
  Instance scaled(nodes[0].bandwidth * grant_.fraction, std::move(open_bw),
                  std::move(guarded_bw));
  engine::SessionConfig session_config = host_.config.session;
  session_config.trace_id = id_;  // repair/adapt spans name their channel
  session_ = std::make_unique<engine::Session>(host_.planner, scaled,
                                               session_config, host_.config);
  if (session_->initial_plan_verified()) {
    // Channel opens and join replans verify their computed plans too —
    // without this the verify.* counters would only see leave events.
    host_.metrics.inc("verify.calls");
    host_.metrics.inc(session_->initial_plan_tier() ==
                              flow::VerifyTier::kAcyclicSweep
                          ? "verify.tier_sweep"
                          : "verify.tier_maxflow");
  }
  caller_ids.insert(caller_ids.end(), guarded_ids.begin(), guarded_ids.end());
  remap_slots(caller_ids);
  if (obs::Profiler* prof = host_.config.profiler) {
    prof->enter("runtime/session/build");
    prof->count("runtime/session/build", "nodes",
                static_cast<std::uint64_t>(scaled.size()));
  }
  // A live chunk stream follows every re-plan without restarting.
  sync();
}

std::optional<ChurnReport> Channel::absorb(const std::set<int>& departed,
                                           double when) {
  // Departed peers carry no telemetry history forward: drop their
  // crash-silence counters and cached (blackout) samples.
  for (const int node : departed) {
    const auto rid = static_cast<std::size_t>(node);
    if (rid < silence_.size()) silence_[rid] = Silence{};
    if (rid < last_node_sample_.size()) last_node_sample_[rid].reset();
  }
  last_edge_sample_.erase(
      std::remove_if(last_edge_sample_.begin(), last_edge_sample_.end(),
                     [&departed](const control::EdgeSample& sample) {
                       return departed.count(sample.from) != 0 ||
                              departed.count(sample.to) != 0;
                     }),
      last_edge_sample_.end());
  // Translate runtime ids to this channel's session slots. Channels
  // opened after a joiner arrived include it; older ones may not.
  std::vector<int> slots;
  for (int slot = 1; slot < static_cast<int>(node_of_slot_.size()); ++slot) {
    if (departed.count(node_of_slot_[static_cast<std::size_t>(slot)]) != 0) {
      slots.push_back(slot);
    }
  }
  if (slots.empty()) return std::nullopt;

  // Survivors in the session's *current sorted order*, opens first: this
  // is exactly the caller-side numbering sim::remove_nodes hands the
  // post-churn instance, so original_id() maps new slots back into it.
  std::vector<int> survivors{node_of_slot_[0]};
  survivors.reserve(node_of_slot_.size() - slots.size());
  for (const bool guarded : {false, true}) {
    for (std::size_t slot = 1; slot < node_of_slot_.size(); ++slot) {
      const int node = node_of_slot_[slot];
      if (departed.count(node) == 0 &&
          host_.nodes[static_cast<std::size_t>(node)].guarded == guarded) {
        survivors.push_back(node);
      }
    }
  }
  const engine::ChurnOutcome outcome = session_->on_departure(slots);
  remap_slots(survivors);
  record(outcome, when, "departure replan refused (planner outage)");
  host_.metrics.inc(outcome.full_replan ? "repairs.full"
                                        : "repairs.incremental");
  if (obs::Profiler* prof = host_.config.profiler) {
    prof->enter("runtime/session/churn");
    prof->count("runtime/session/churn", "departures",
                static_cast<std::uint64_t>(outcome.departed));
    prof->count("runtime/session/churn",
                outcome.full_replan ? "full_replans" : "incremental_repairs");
    prof->count("runtime/session/churn", "verify_calls",
                static_cast<std::uint64_t>(outcome.verify_calls));
  }
  // Live-patch the running stream: the departed peers' in-flight chunks
  // drop, the repaired overlay's edges splice in — no restart.
  sync();
  const ChurnReport report{when, id_, EventType::kNodeLeave,
                           outcome.departed, outcome.full_replan,
                           session_->design_rate(), outcome.achieved_rate};
  if (host_.config.recorder != nullptr) {
    host_.config.recorder->record(
        when, id_, "churn",
        std::string(outcome.full_replan ? "replan" : "repair") +
            " departed=" + std::to_string(outcome.departed) +
            " achieved=" + std::to_string(outcome.achieved_rate));
  }
  if (report.design_rate > 0.0) {
    host_.metrics.observe("channel.recovery_ratio",
                          report.achieved_rate / report.design_rate);
  }
  return report;
}

void Channel::rescale(const Grant& grant, double now) {
  const double factor = grant.fraction / grant_.fraction;
  session_->rescale(factor);
  grant_ = grant;
  host_.metrics.inc("broker.renegotiated");
  const RuntimeConfig& config = host_.config;
  if (config.profiler != nullptr) {
    config.profiler->enter("runtime/broker/rebalance");
    config.profiler->count("runtime/broker/rebalance", "rescales");
  }
  if (config.trace != nullptr) {
    config.trace->instant(obs::Lane::kBroker, "runtime", "renegotiate",
                          {{"channel", id_},
                           {"fraction", grant.fraction},
                           {"factor", factor}});
  }
  if (config.recorder != nullptr) {
    config.recorder->record(now, id_, "renegotiate",
                            "fraction=" + std::to_string(grant.fraction));
  }
  // Renegotiated rates reach the stream live: pipes re-rate in place, the
  // source re-paces its emission.
  sync();
}

void Channel::push_state(int dp, const Node& node) {
  dataplane::Execution& exec = *execution_;
  // Brownout caps are absolute (a fraction of the *nominal* channel
  // grant), so they survive demotions and follow renegotiations.
  exec.set_effective_capacity(
      dp, node.capacity_factor < 1.0
              ? node.capacity_factor * node.bandwidth * grant_.fraction
              : -1.0);
  const dataplane::ExecutionConfig& defaults = host_.config.dataplane.execution;
  exec.set_egress_profile(
      dp, node.wan ? node.profile
                   : dataplane::LinkProfile{defaults.loss_rate,
                                            defaults.latency, 0.0});
  exec.set_partition_group(dp, node.partition_group);
  exec.set_corrupt_rate(dp, node.corrupt_rate);
}

int Channel::dp_of(int rid) const {
  return execution_ && rid >= 0 &&
                 rid < static_cast<int>(dp_of_rid_.size())
             ? dp_of_rid_[static_cast<std::size_t>(rid)]
             : -1;
}

void Channel::apply_node_state(int rid, const Node& node) {
  if (const int dp = dp_of(rid); dp >= 0) push_state(dp, node);
}

void Channel::crash(int rid) {
  if (const int dp = dp_of(rid); dp >= 0) execution_->crash_node(dp);
}

void Channel::forgive(int rid) {
  if (!controller_) return;
  // Everything the controller measured about the island it measured across
  // the cut — demotions, clamps and straggler verdicts get pardoned, not
  // probed back over half an hour.
  controller_->forgive(rid);
  host_.metrics.inc("fault.heal_pardons");
}

void Channel::sync() {
  obs::ShardRegistry& m = host_.metrics;
  if (!sync_gauges_) {
    sync_gauges_ = SyncGauges{m.gauge_handle(series("fraction")),
                              m.gauge_handle(series("design_rate")),
                              m.gauge_handle(series("achieved_rate"))};
  }
  m.set(sync_gauges_->fraction, grant_.fraction);
  m.set(sync_gauges_->design_rate, session_->design_rate());
  m.set(sync_gauges_->achieved_rate, session_->current_rate());
  if (!execution_) return;
  dataplane::Execution& exec = *execution_;
  const Instance& instance = session_->instance();
  // Nodes: the session's current platform, indexed by runtime node id.
  dp_of_rid_.resize(host_.nodes.size(), -1);
  std::vector<char> planned(dp_of_rid_.size(), 0);
  for (const int node : node_of_slot_) {
    planned[static_cast<std::size_t>(node)] = 1;
  }
  for (std::size_t rid = 0; rid < dp_of_rid_.size(); ++rid) {
    int& dp = dp_of_rid_[rid];
    if (dp < 0 || planned[rid] != 0) continue;
    // Departed (or dropped from the overlay): in-flight chunks vanish,
    // reservations release, survivors re-request elsewhere.
    exec.remove_node(dp);
    dp = -1;
  }
  std::vector<int> dp_of_slot(node_of_slot_.size());
  for (int slot = 0; slot < instance.size(); ++slot) {
    const int node = node_of_slot_[static_cast<std::size_t>(slot)];
    int& dp = dp_of_rid_[static_cast<std::size_t>(node)];
    const bool joined = dp < 0;
    if (joined) {
      dp = exec.add_node(instance.b(slot));
      // A live-edge joiner is only on the hook for chunks emitted after it
      // arrived.
      expected_at_join_.resize(static_cast<std::size_t>(dp) + 1);
      expected_at_join_[static_cast<std::size_t>(dp)] = design_integral_;
    }
    dp_of_slot[static_cast<std::size_t>(slot)] = dp;
    if (!joined) {
      // An abruptly crashed node stays in the session's platform until the
      // silence detector synthesizes its departure; until then its stream
      // slot is a corpse — nothing to budget or cap.
      if (!exec.node_alive(dp)) continue;
      exec.set_node_budget(dp, instance.b(slot));
    }
    // The effective world follows the node into this stream: an already
    // browned-out, WAN-classed, partitioned or corrupting peer joins on
    // its current state, not a clean slate.
    push_state(dp, host_.nodes[static_cast<std::size_t>(node)]);
  }
  // Pipes: splice the session's current overlay in, preserving in-flight
  // transmissions on edges that survived.
  const BroadcastScheme& scheme = session_->scheme();
  std::vector<std::tuple<int, int, double>> desired;
  desired.reserve(static_cast<std::size_t>(scheme.edge_count()));
  for (int slot = 0; slot < scheme.num_nodes(); ++slot) {
    const int from = dp_of_slot[static_cast<std::size_t>(slot)];
    // Splice around crashed-but-undetected nodes: the plan still names
    // them, but their pipes stay down until detection repairs the overlay.
    if (!exec.node_alive(from)) continue;
    for (const auto& [to_slot, rate] : scheme.out_edges(slot)) {
      const int to = dp_of_slot[static_cast<std::size_t>(to_slot)];
      if (!exec.node_alive(to)) continue;
      desired.emplace_back(from, to, rate);
    }
  }
  exec.reconcile_edges(desired);
  // Emit at the verified rate of the overlay actually in service — the
  // stream can never outrun what the flow bound proves deliverable.
  exec.set_emission_rate(session_->current_rate());
  max_verified_ = std::max(max_verified_, session_->current_rate());
}

void Channel::advance(double t, double dt) {
  if (!execution_) return;
  if (dt > 0.0) {
    // Integrate the design-rate promise while it was in force; the
    // StreamReport's sustained_ratio is measured against this.
    design_integral_ += session_->design_rate() * dt /
                        host_.config.dataplane.execution.chunk_size;
    // ... and the *emission* promise (the controller's straggler
    // reference: what the stream actually tried to deliver).
    control_expected_ += session_->current_rate() * dt;
  }
  execution_->run_until(t);
}

void Channel::read_edges() {
  rid_of_dp_.assign(static_cast<std::size_t>(execution_->num_nodes()), -1);
  for (std::size_t rid = 0; rid < dp_of_rid_.size(); ++rid) {
    const int dp = dp_of_rid_[rid];
    if (dp >= 0) {
      rid_of_dp_[static_cast<std::size_t>(dp)] = static_cast<int>(rid);
    }
  }
  execution_->edge_stats_into(edges_);
  // Re-key to runtime ids; pipes with an endpoint the channel no longer
  // maps drop out, so every reader below sees runtime ids only.
  std::size_t kept = 0;
  for (dataplane::EdgeStats stats : edges_) {
    stats.from = rid_of_dp_[static_cast<std::size_t>(stats.from)];
    stats.to = rid_of_dp_[static_cast<std::size_t>(stats.to)];
    if (stats.from >= 0 && stats.to >= 0) edges_[kept++] = stats;
  }
  edges_.resize(kept);
}

void Channel::feed_edge_telemetry() {
  const std::string& prefix = host_.config.telemetry_node_prefix;
  obs::ShardRegistry& m = host_.metrics;
  for (const dataplane::EdgeStats& stats : edges_) {
    auto& seen = seen_edge_telemetry_[edge_key(stats.from, stats.to)];
    // Pipes reset their counters when an overlay patch re-splices them; a
    // counter below its watermark restarts the delta from zero.
    const std::uint64_t lost_delta =
        stats.lost >= seen.first ? stats.lost - seen.first : stats.lost;
    const std::uint64_t stall_delta = stats.window_stalls >= seen.second
                                          ? stats.window_stalls - seen.second
                                          : stats.window_stalls;
    seen = {stats.lost, stats.window_stalls};
    if (lost_delta == 0 && stall_delta == 0) continue;
    const std::string node_key = "node:" + prefix + std::to_string(stats.from);
    if (lost_delta > 0) {
      m.offer(host_.hot.edge_retransmits,
              "edge:" + prefix + std::to_string(stats.from) + "->" +
                  std::to_string(stats.to),
              lost_delta);
      m.offer(host_.hot.node_retransmits, node_key, lost_delta);
    }
    if (stall_delta > 0) m.offer(host_.hot.node_stalls, node_key, stall_delta);
  }
}

Channel::Tick Channel::tick(double t) {
  Tick result;
  if (!execution_ || !controller_) return result;
  const RuntimeConfig& config = host_.config;
  const std::vector<Node>& nodes = host_.nodes;
  obs::ShardRegistry& m = host_.metrics;
  const dataplane::Execution& exec = *execution_;
  const double chunk = config.dataplane.execution.chunk_size;
  m.inc(host_.hot.control_samples);
  read_edges();
  if (config.telemetry != nullptr) feed_edge_telemetry();

  control::TickInputs inputs{t, t - last_control_time_, control_expected_,
                             chunk, {}, {}};
  last_control_time_ = t;
  control_expected_ = 0.0;

  // Per-node samples in ascending runtime-id order; capacities come from
  // the session's current slots. Telemetry blackout guard: a dark
  // collector hands the controller the last sample it actually observed,
  // frozen — the exact signature its stale-telemetry guard refuses to
  // judge — never fresh data it could not have collected. A live one
  // refreshes the cache.
  const std::vector<double> caps = session_->capacities();
  std::vector<double> granted(nodes.size(), 0.0);
  for (std::size_t slot = 0; slot < caps.size(); ++slot) {
    granted[static_cast<std::size_t>(node_of_slot_[slot])] = caps[slot];
  }
  last_node_sample_.resize(nodes.size());
  inputs.nodes.reserve(node_of_slot_.size());
  for (std::size_t rid = 0; rid < dp_of_rid_.size(); ++rid) {
    const int dp = dp_of_rid_[rid];
    if (dp < 0) continue;
    const Node& info = nodes[rid];
    const dataplane::NodeProgress progress = exec.progress(dp);
    control::NodeSample sample{
        static_cast<int>(rid), info.bandwidth * grant_.fraction,
        granted[rid], exec.delivered(dp) * chunk,
        dp != 0 && progress.alive &&
            progress.joined + control::kWarmupGrace <= t - inputs.window};
    std::optional<control::NodeSample>& cached = last_node_sample_[rid];
    if (!info.blackout) {
      cached = sample;
    } else if (cached) {
      sample = *cached;
    }
    inputs.nodes.push_back(sample);
  }
  // Per-edge samples sorted by runtime ids, so the controller's iteration
  // order is stable: sort (key, row) pairs, then gather the rows.
  edge_order_.clear();
  for (std::size_t row = 0; row < edges_.size(); ++row) {
    edge_order_.emplace_back(edge_key(edges_[row].from, edges_[row].to), row);
  }
  std::sort(edge_order_.begin(), edge_order_.end());
  inputs.edges.reserve(edges_.size());
  for (const auto& [key, row] : edge_order_) {
    const dataplane::EdgeStats& stats = edges_[row];
    inputs.edges.push_back({stats.from, stats.to, stats.rate, stats.busy_time,
                            stats.completed, stats.sent, stats.lost,
                            stats.attempts});
  }
  // The same blackout guard per edge, in one merge against the sorted
  // cache; rows for pipes first seen live this tick are merged in after.
  edge_sample_scratch_.clear();
  auto cached = last_edge_sample_.begin();
  const auto cache_end = last_edge_sample_.end();
  for (control::EdgeSample& sample : inputs.edges) {
    while (cached != cache_end && edge_less(*cached, sample)) ++cached;
    const bool hit = cached != cache_end && !edge_less(sample, *cached);
    if (nodes[static_cast<std::size_t>(sample.from)].blackout ||
        nodes[static_cast<std::size_t>(sample.to)].blackout) {
      if (hit) sample = *cached;
    } else if (hit) {
      *cached = sample;
    } else {
      edge_sample_scratch_.push_back(sample);
    }
  }
  if (!edge_sample_scratch_.empty()) {
    const auto known = static_cast<std::ptrdiff_t>(last_edge_sample_.size());
    last_edge_sample_.insert(last_edge_sample_.end(),
                             edge_sample_scratch_.begin(),
                             edge_sample_scratch_.end());
    std::inplace_merge(last_edge_sample_.begin(),
                       last_edge_sample_.begin() + known,
                       last_edge_sample_.end(), edge_less);
  }

  if (config.fault.detect_crashes && session_->current_rate() > 0.0) {
    // Crash detection. A crashed peer sends no leave event, but delivered
    // stands still and every adjacent pipe's attempts + sent freeze
    // (try_send bails on a dead endpoint *before* counting the attempt); a
    // partitioned peer's senders keep attempting and losing instead.
    // Counters are read raw (the detector is not behind the blackout's
    // veil), but blacked-out peers' silence counters pause.
    std::vector<std::uint64_t> activity(nodes.size(), 0);
    for (const dataplane::EdgeStats& stats : edges_) {
      activity[static_cast<std::size_t>(stats.from)] +=
          stats.attempts + stats.sent;
      activity[static_cast<std::size_t>(stats.to)] +=
          stats.attempts + stats.sent;
    }
    silence_.resize(nodes.size());
    for (std::size_t rid = 0; rid < dp_of_rid_.size(); ++rid) {
      const int dp = dp_of_rid_[rid];
      if (dp < 0 || static_cast<int>(rid) == node_of_slot_[0]) continue;
      const Node& info = nodes[rid];
      // Correlated silence across a whole region is a partition signature,
      // not a crash — real failure detectors gate on quorum for exactly
      // this reason. Pause the counter until the heal.
      if (info.blackout || info.partition_group != 0) continue;
      const std::uint64_t observed =
          activity[rid] + static_cast<std::uint64_t>(exec.delivered(dp));
      Silence& silence = silence_[rid];
      if (!silence.tracked || silence.activity != observed) {
        silence = {observed, 0, true};
      } else if (++silence.windows >= kCrashSilenceWindows) {
        result.silent.push_back(static_cast<int>(rid));
      }
    }
  }

  const control::Directive directive = controller_->tick(inputs);
  if (obs::Profiler* prof = config.profiler) {
    prof->enter("runtime/control/decide");
    prof->count("runtime/control/decide", "node_samples", inputs.nodes.size());
    prof->count("runtime/control/decide", "edge_samples", inputs.edges.size());
    prof->count("runtime/control/decide", "straggler_trips",
                static_cast<std::uint64_t>(directive.straggler_trips));
    prof->count("runtime/control/decide", "edge_trips",
                static_cast<std::uint64_t>(directive.edge_trips));
    if (directive.act) prof->count("runtime/control/decide", "directives");
  }
  m.inc("control.straggler_detections",
        static_cast<std::uint64_t>(directive.straggler_trips));
  m.inc("control.edge_detections",
        static_cast<std::uint64_t>(directive.edge_trips));
  m.set(series("control.stragglers"),
        static_cast<double>(directive.stragglers));
  m.set(series("control.degraded_edges"),
        static_cast<double>(directive.degraded_edges));
  m.set(series("control.overrides"),
        static_cast<double>(directive.factors.size()));
  m.inc("control.stale_nodes",
        static_cast<std::uint64_t>(directive.stale_nodes));
  m.inc("control.stale_edges",
        static_cast<std::uint64_t>(directive.stale_edges));
  if (directive.act) result.control = adapt(directive, t);
  if (slo_) evaluate_slo(inputs, t);
  return result;
}

void Channel::evaluate_slo(const control::TickInputs& inputs, double t) {
  // Fresh latency SLI input at the boundary (the same tee as the per-event
  // drain in export_metrics — identical observation sequence, just not
  // deferred to the next event).
  for (const double latency : execution_->drain_latencies()) {
    observe_chunk_latency(latency);
  }
  // Windowed sustained SLI: the worst judgeable node's delivered delta
  // against the emission promise over the last kSloSustainedWindow ticks.
  // Windowed — not cumulative — so a node crippled by a healed partition
  // recovers to ok once its recent windows look healthy again, even though
  // it can never make up the backlog.
  double worst = 1.0;
  const double expected_total = slo_expected_total_ + inputs.expected_delta;
  if (static_cast<int>(slo_history_.size()) >= kSloSustainedWindow) {
    const SloSnapshot& base = slo_history_.front();
    const double promised = expected_total - base.expected;
    if (promised > 1e-12) {
      // Both sides are sorted by node id, so the join is a linear
      // two-pointer walk.
      auto prev = base.delivered.begin();
      for (const control::NodeSample& sample : inputs.nodes) {
        if (!sample.judgeable) continue;
        while (prev != base.delivered.end() && prev->first < sample.id) {
          ++prev;
        }
        if (prev == base.delivered.end()) break;
        if (prev->first != sample.id) continue;
        worst = std::min(worst, (sample.delivered - prev->second) / promised);
      }
    }
  }
  slo_expected_total_ = expected_total;
  SloSnapshot snap;
  snap.expected = expected_total;
  snap.delivered.reserve(inputs.nodes.size());
  for (const control::NodeSample& sample : inputs.nodes) {
    snap.delivered.emplace_back(sample.id, sample.delivered);
  }
  slo_history_.push_back(std::move(snap));
  while (static_cast<int>(slo_history_.size()) > kSloSustainedWindow) {
    slo_history_.pop_front();
  }
  const std::uint64_t pages_before = slo_->pages();
  const std::uint64_t warns_before = slo_->warns();
  const obs::SloState state = slo_->evaluate(t, worst);
  obs::ShardRegistry& m = host_.metrics;
  m.set(series("slo.state"), static_cast<double>(state));
  m.observe("slo.sustained_worst", worst);
  m.inc("slo.pages", slo_->pages() - pages_before);
  m.inc("slo.warns", slo_->warns() - warns_before);
}

ControlReport Channel::adapt(const control::Directive& directive, double t) {
  const RuntimeConfig& config = host_.config;
  obs::ShardRegistry& m = host_.metrics;
  // Arm the time-to-recover SLI: the sustained ratio now has the SLO
  // monitor's kRecoverTimeout seconds to climb back over its target.
  if (slo_) slo_->on_directive(t);
  const double rate_before = session_->current_rate();
  engine::AdaptationRequest request;
  request.force_replan = directive.force_replan;
  // Effective caps per current slot: the broker-granted nominal scaled by
  // the controller's capacity-class factor.
  request.capacities.resize(node_of_slot_.size());
  std::vector<int> slot_of_node(host_.nodes.size(), -1);
  for (std::size_t slot = 0; slot < node_of_slot_.size(); ++slot) {
    const int rid = node_of_slot_[slot];
    slot_of_node[static_cast<std::size_t>(rid)] = static_cast<int>(slot);
    const auto it = directive.factors.find(rid);
    request.capacities[slot] =
        host_.nodes[static_cast<std::size_t>(rid)].bandwidth *
        grant_.fraction * (it == directive.factors.end() ? 1.0 : it->second);
  }
  const auto slot_of = [&slot_of_node](int rid) {
    return rid >= 0 && rid < static_cast<int>(slot_of_node.size())
               ? slot_of_node[static_cast<std::size_t>(rid)]
               : -1;
  };
  for (const auto& [from, to, limit] : directive.edge_limits) {
    const int from_slot = slot_of(from);
    const int to_slot = slot_of(to);
    if (from_slot < 0 || to_slot < 0) continue;
    request.edge_limits.emplace_back(from_slot, to_slot, limit);
  }

  const engine::ChurnOutcome outcome = session_->adapt(request);
  // Same node set, new sorted order: remap slots through original_id.
  remap_slots(std::vector<int>(node_of_slot_));
  record(outcome, t, "adapt replan refused (planner outage)");
  if (obs::Profiler* prof = config.profiler) {
    prof->enter("runtime/session/adapt");
    prof->count("runtime/session/adapt", "demotions",
                static_cast<std::uint64_t>(directive.demotions));
    prof->count("runtime/session/adapt", "restores",
                static_cast<std::uint64_t>(directive.restores));
    prof->count("runtime/session/adapt", "reroutes",
                static_cast<std::uint64_t>(directive.reroutes));
    prof->count("runtime/session/adapt",
                outcome.full_replan ? "replans" : "repairs");
    prof->count("runtime/session/adapt", "verify_calls",
                static_cast<std::uint64_t>(outcome.verify_calls));
  }
  m.inc("control.demotions", static_cast<std::uint64_t>(directive.demotions));
  m.inc("control.restores", static_cast<std::uint64_t>(directive.restores));
  m.inc("control.reroutes", static_cast<std::uint64_t>(directive.reroutes));
  m.inc(outcome.full_replan ? "control.replans" : "control.repairs");
  m.observe("control.drift", directive.drift);
  if (rate_before > 0.0) {
    m.observe("control.recovered_ratio", outcome.achieved_rate / rate_before);
  }
  if (config.telemetry != nullptr) {
    // Heavy-hitter view of the control plane: which nodes keep costing
    // capacity. Weight = milli-units of capacity factor surrendered, so a
    // node demoted 1.0 -> 0.25 outweighs ten 0.95 -> 0.90 nudges.
    for (const control::Evidence& ev : directive.evidence) {
      if (ev.node < 0 || std::strcmp(ev.action, "demote") != 0) continue;
      const double drop = std::max(0.0, ev.factor_before - ev.factor_after);
      m.offer(host_.hot.node_demotions,
              "node:" + config.telemetry_node_prefix + std::to_string(ev.node),
              std::max<std::uint64_t>(
                  1, static_cast<std::uint64_t>(std::lround(drop * 1000.0))));
    }
  }
  // The adapted overlay splices into the running stream — no restart; the
  // source re-paces to the newly verified rate.
  sync();

  ControlReport report{t, id_, directive.demotions, directive.restores,
                       directive.reroutes, directive.stragglers,
                       directive.degraded_edges, directive.drift,
                       directive.force_replan, outcome.full_replan,
                       rate_before, outcome.achieved_rate, directive.evidence};
  if (config.trace != nullptr) {
    config.trace->complete_at(obs::Lane::kControl, "control", "directive", t,
                              0.0,
                              {{"channel", id_},
                               {"demotions", directive.demotions},
                               {"restores", directive.restores},
                               {"reroutes", directive.reroutes},
                               {"drift", directive.drift},
                               {"replan", directive.force_replan},
                               {"rate_before", rate_before},
                               {"rate_after", outcome.achieved_rate}});
    // The causal audit, event by event: each record names the detector
    // that judged, the signal it saw and the capacity move it drove.
    for (const control::Evidence& ev : directive.evidence) {
      config.trace->instant_at(obs::Lane::kControl, "control", ev.action, t,
                               {{"channel", id_},
                                {"detector", ev.detector},
                                {"node", ev.node},
                                {"from", ev.from},
                                {"to", ev.to},
                                {"window", ev.window_value},
                                {"ewma", ev.ewma},
                                {"threshold", ev.threshold},
                                {"estimate", ev.estimate},
                                {"factor_before", ev.factor_before},
                                {"factor_after", ev.factor_after},
                                {"drift", ev.drift},
                                {"trips", ev.trips}});
    }
  }
  if (config.recorder != nullptr) {
    for (const control::Evidence& ev : directive.evidence) {
      std::string detail = std::string(ev.detector);
      if (ev.node >= 0) detail += " node=" + std::to_string(ev.node);
      if (ev.from >= 0) {
        detail += " edge=" + std::to_string(ev.from) + "->" +
                  std::to_string(ev.to);
      }
      detail += " ewma=" + std::to_string(ev.ewma) +
                " threshold=" + std::to_string(ev.threshold);
      config.recorder->record(t, id_, ev.action, std::move(detail));
    }
  }
  return report;
}

void Channel::observe_chunk_latency(double latency) {
  host_.metrics.observe(host_.hot.dp_chunk_latency, latency);
  if (slo_) slo_->observe_latency(latency);
}

void Channel::export_metrics() {
  if (!execution_) return;
  dataplane::Execution& exec = *execution_;
  obs::ShardRegistry& m = host_.metrics;
  // Delta export through interned handles.
  const auto delta = [&m](obs::ShardRegistry::CounterHandle handle,
                          std::uint64_t current, std::uint64_t& seen) {
    if (current > seen) {
      m.inc(handle, current - seen);
      seen = current;
    }
  };
  const HotMetrics& hot = host_.hot;
  delta(hot.dp_delivered, exec.delivered_chunks(), seen_delivered_);
  delta(hot.dp_losses, exec.losses(), seen_losses_);
  delta(hot.dp_retransmits, exec.retransmits(), seen_retransmits_);
  delta(hot.dp_hol_stalls, exec.hol_stalls(), seen_stalls_);
  delta(hot.dp_duplicates, exec.duplicates(), seen_duplicates_);
  for (const double latency : exec.drain_latencies()) {
    observe_chunk_latency(latency);
  }
  m.set(series("dataplane.delivered"),
        static_cast<double>(exec.delivered_chunks()));
}

StreamReport Channel::finalize(double now) {
  const RuntimeConfig& config = host_.config;
  obs::ShardRegistry& m = host_.metrics;
  dataplane::Execution& exec = *execution_;
  // End of stream: stop the source and let the in-flight tail drain (in
  // virtual time) so backpressured chunks still count.
  exec.stop_emission();
  exec.run_to_completion();
  export_metrics();
  const dataplane::ExecutionReport executed =
      exec.report(session_->current_rate());
  StreamReport report{id_, open_time_, now, executed.emitted,
                      executed.delivered_chunks, executed.retransmits,
                      executed.hol_stalls, executed.duplicates,
                      design_integral_, /*sustained_ratio=*/1.0,
                      executed.achieved_rate, max_verified_};
  for (const int dp : dp_of_rid_) {
    if (dp <= 0 || !exec.node_alive(dp)) continue;
    const double expected =
        design_integral_ - expected_at_join_[static_cast<std::size_t>(dp)];
    if (expected < 1.0) continue;  // too young for a meaningful ratio
    report.sustained_ratio =
        std::min(report.sustained_ratio, exec.delivered(dp) / expected);
  }
  // flow::Verifier cross-check: a windowed empirical rate may wobble a few
  // percent above the fluid bound on short windows, never materially.
  report.rate_within_verified =
      report.achieved_rate <= report.verified_rate * 1.02 + 1e-9;
  m.inc("dataplane.streams_finalized");
  if (config.trace != nullptr) {
    config.trace->complete_at(obs::Lane::kExecution, "dataplane",
                              "stream_end", now, 0.0,
                              {{"channel", id_},
                               {"emitted", report.emitted},
                               {"delivered", report.delivered_chunks},
                               {"achieved", report.achieved_rate},
                               {"verified", report.verified_rate},
                               {"audit_ok", report.rate_within_verified}});
  }
  if (config.recorder != nullptr) {
    config.recorder->record(now, id_, "stream_end",
                            "achieved=" + std::to_string(report.achieved_rate) +
                                " verified=" +
                                std::to_string(report.verified_rate));
  }
  if (!report.rate_within_verified) {
    m.inc("dataplane.rate_audit_failures");
    // Budget audit failed: snapshot the channel's recent history to disk
    // (if a dump path is configured) while the cause is still in the ring.
    if (config.recorder != nullptr) {
      config.recorder->record_failure(
          now, id_, "Runtime::finalize_stream",
          {"achieved rate " + std::to_string(report.achieved_rate) +
           " exceeds verified " + std::to_string(report.verified_rate)});
    }
  }
  m.observe("dataplane.sustained_ratio", report.sustained_ratio);
  m.observe("dataplane.achieved_rate", report.achieved_rate);
  if (config.telemetry != nullptr) {
    // Control-less runs never tick; the close-out sweep attributes
    // whatever accumulated since the last boundary.
    read_edges();
    feed_edge_telemetry();
  }
  m.erase(series(kChannelSeries[0]));
  execution_.reset();
  return report;
}

void Channel::validate(double tol, std::vector<double>& allocated,
                       std::vector<std::string>& violations) const {
  const std::vector<double> caps = session_->capacities();
  for (std::size_t slot = 0; slot < caps.size(); ++slot) {
    allocated[static_cast<std::size_t>(node_of_slot_[slot])] += caps[slot];
  }
  if (!execution_) return;
  // Slot map <-> execution map consistency: every planned slot resolves to
  // exactly one live dataplane node.
  for (std::size_t slot = 0; slot < node_of_slot_.size(); ++slot) {
    if (dp_of(node_of_slot_[slot]) < 0) {
      violations.push_back("channel " + std::to_string(id_) + " slot " +
                           std::to_string(slot) + " (node " +
                           std::to_string(node_of_slot_[slot]) +
                           ") missing from its execution map");
    }
  }
  // The stream's own no-orphan audit: windows, reservations and in-flight
  // copies reconcile even mid-crash / mid-partition.
  for (const std::string& violation : execution_->validate(tol)) {
    violations.push_back("channel " + std::to_string(id_) +
                         " execution: " + violation);
  }
}

}  // namespace bmp::runtime
