#include "bmp/runtime/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <unordered_set>

#include "bmp/obs/flight_recorder.hpp"
#include "bmp/obs/profiler.hpp"
#include "bmp/obs/trace.hpp"

namespace bmp::runtime {

const char* to_string(EventType type) {
  switch (type) {
    case EventType::kChannelOpen: return "channel_open";
    case EventType::kChannelClose: return "channel_close";
    case EventType::kNodeJoin: return "node_join";
    case EventType::kNodeLeave: return "node_leave";
    case EventType::kRenegotiate: return "renegotiate";
    case EventType::kDegrade: return "degrade";
    case EventType::kFault: return "fault";
  }
  throw std::invalid_argument("unknown event type");
}

const char* to_string(FaultAction::Kind kind) {
  switch (kind) {
    case FaultAction::Kind::kCrash: return "crash";
    case FaultAction::Kind::kPartitionStart: return "partition_start";
    case FaultAction::Kind::kPartitionHeal: return "partition_heal";
    case FaultAction::Kind::kCorruptStart: return "corrupt_start";
    case FaultAction::Kind::kCorruptEnd: return "corrupt_end";
    case FaultAction::Kind::kBlackoutStart: return "blackout_start";
    case FaultAction::Kind::kBlackoutEnd: return "blackout_end";
    case FaultAction::Kind::kPlannerOutageStart: return "planner_outage_start";
    case FaultAction::Kind::kPlannerOutageEnd: return "planner_outage_end";
  }
  throw std::invalid_argument("unknown fault kind");
}

namespace {

// The trace sink and profiler ride into the planner through its config;
// the planner is constructed in the member-init list, so the splice
// happens in a value helper rather than in the constructor body.
engine::PlannerConfig with_obs(engine::PlannerConfig planner,
                               obs::TraceSink* trace,
                               obs::Profiler* profiler,
                               engine::PlannerOutage* outage) {
  planner.trace = trace;
  planner.profiler = profiler;
  // Fault events toggle the runtime-owned outage unless the caller wired
  // in an external one (tests driving the outage by hand).
  if (planner.outage == nullptr) planner.outage = outage;
  return planner;
}

}  // namespace

Runtime::Runtime(RuntimeConfig config, double source_bandwidth,
                 const std::vector<NodeSpec>& initial_peers)
    : config_(config),
      planner_(with_obs(config.planner, config.trace, config.profiler,
                        &planner_outage_)),
      broker_(config.broker_headroom),
      metrics_(config.telemetry != nullptr ? *config.telemetry
                                           : own_metrics_) {
  outage_ = planner_.config().outage;
  // One timing switch for the whole loop: a runtime that opts out of
  // timing.* metrics must not pay the per-verify clock reads inside its
  // sessions either.
  config_.session.verify.collect_timing = config_.collect_timing;
  // One trace switch likewise: the runtime's sink reaches every session
  // (and its event-loop verifier) and every chunk stream. Planner-pool
  // thread-local verifiers stay untraced by design — see VerifyOptions.
  config_.session.trace = config_.trace;
  config_.session.verify.trace = config_.trace;
  config_.dataplane.execution.trace = config_.trace;
  config_.dataplane.execution.recorder = config_.recorder;
  // One profiler switch likewise: the event-loop verifier and every chunk
  // stream attribute their work to the same tree the planner writes into.
  config_.session.verify.profiler = config_.profiler;
  config_.dataplane.execution.profiler = config_.profiler;
  // One lineage switch likewise: every chunk stream records delivery hops
  // into the shared sink (records carry the channel id, so streams never
  // collide).
  config_.dataplane.execution.lineage = config_.lineage;
  if (!is_valid_bandwidth(source_bandwidth)) {
    throw std::invalid_argument("Runtime: invalid source bandwidth");
  }
  if (config_.control.enabled && !config_.dataplane.execute) {
    throw std::invalid_argument(
        "Runtime: the control plane needs execution mode (its telemetry "
        "source) — set dataplane.execute");
  }
  nodes_.reserve(1 + initial_peers.size());
  Node source;
  source.bandwidth = source_bandwidth;
  nodes_.push_back(source);
  for (const NodeSpec& spec : initial_peers) {
    if (!is_valid_bandwidth(spec.bandwidth)) {
      throw std::invalid_argument("Runtime: invalid peer bandwidth");
    }
    if (spec.wan) dataplane::check_link_profile(spec.profile, "Runtime: peer");
    Node node;
    node.bandwidth = spec.bandwidth;
    node.guarded = spec.guarded;
    node.wan = spec.wan;
    node.profile = spec.profile;
    nodes_.push_back(node);
  }
  alive_peers_ = static_cast<int>(initial_peers.size());
  if (!config_.telemetry_node_prefix.empty()) {
    obs::check_label(config_.telemetry_node_prefix,
                     "Runtime: telemetry_node_prefix");
  }
  register_series();
}

void Runtime::register_series() {
  // A subsystem's fixed-name series exist, at zero, from construction: a
  // shard's series set then depends on its configuration alone, not on
  // which outcomes its workload happened to trip, and scrapers see zeros
  // instead of gaps. (Per-channel and per-event-type series still appear
  // with their channel / first event.) The integer-valued population
  // gauges sum across shards; every other gauge keeps the default max
  // reduction — a non-integral sum, e.g. broker.allocated, would make the
  // rollup bytes depend on the merge tree's shape.
  obs::ShardRegistry& m = metrics_;
  hot_.events_total = m.counter_handle("events.total");
  hot_.broker_admitted = m.counter_handle("broker.admitted");
  hot_.broker_rejected = m.counter_handle("broker.rejected");
  hot_.broker_released = m.counter_handle("broker.released");
  hot_.broker_allocated = m.gauge_handle("broker.allocated");
  hot_.channels_open =
      m.gauge_handle("channels.open", obs::GaugeReduction::kSum);
  hot_.population_alive =
      m.gauge_handle("population.alive", obs::GaugeReduction::kSum);
  m.set(hot_.population_alive, static_cast<double>(alive_peers_));
  if (config_.collect_timing) {
    hot_.timing_event_loop = m.sketch_handle("timing.event_loop_us");
  }
  if (config_.dataplane.execute) {
    hot_.dp_delivered = m.counter_handle("dataplane.delivered");
    hot_.dp_losses = m.counter_handle("dataplane.losses");
    hot_.dp_retransmits = m.counter_handle("dataplane.retransmits");
    hot_.dp_hol_stalls = m.counter_handle("dataplane.hol_stalls");
    hot_.dp_duplicates = m.counter_handle("dataplane.duplicates");
    hot_.dp_chunk_latency = m.sketch_handle("dataplane.chunk_latency");
    m.counter_handle("dataplane.streams_finalized");
    m.counter_handle("dataplane.rate_audit_failures");
    m.sketch_handle("dataplane.sustained_ratio");
    m.sketch_handle("dataplane.achieved_rate");
  }
  if (config_.control.enabled) {
    hot_.control_samples = m.counter_handle("control.samples");
    for (const char* name :
         {"control.demotions", "control.restores", "control.reroutes",
          "control.repairs", "control.replans"}) {
      m.counter_handle(name);
    }
    m.sketch_handle("control.drift");
    m.sketch_handle("control.recovered_ratio");
  }
  if (config_.control.enabled && config_.control.slo_enabled) {
    m.sketch_handle("slo.sustained_worst");
  }
  if (config_.telemetry != nullptr) {
    // Bounded heavy-hitter tables instead of per-node series.
    hot_.node_retransmits = m.topk_handle("hot.node_retransmits");
    hot_.node_stalls = m.topk_handle("hot.node_stalls");
    hot_.edge_retransmits = m.topk_handle("hot.edge_retransmits");
    hot_.node_demotions = m.topk_handle("hot.node_demotion_weight");
  }
}

void Runtime::run(const std::vector<Event>& events) {
  for (std::size_t i = 1; i < events.size(); ++i) {
    if (event_before(events[i], events[i - 1])) {
      throw std::invalid_argument("Runtime::run: events not time-sorted");
    }
  }
  for (const Event& event : events) step(event);
}

void Runtime::step(const Event& event) {
  if (event.time < now_) {
    throw std::invalid_argument("Runtime::step: event precedes loop clock");
  }
  now_ = event.time;
  const auto start = config_.collect_timing
                         ? std::chrono::steady_clock::now()
                         : std::chrono::steady_clock::time_point{};
  // Execution mode: every live chunk stream catches up to this instant on
  // the pre-event overlays before the event reshapes them.
  advance_executions(event.time);
  // After the catch-up (control ticks pin the clock to their boundaries):
  // everything the handlers emit is stamped with this event's sim-time.
  if (config_.trace != nullptr) config_.trace->set_clock(event.time);
  if (config_.recorder != nullptr) {
    std::string detail = to_string(event.type);
    if (event.channel >= 0) {
      detail += " channel=" + std::to_string(event.channel);
    }
    if (!event.joins.empty()) {
      detail += " joins=" + std::to_string(event.joins.size());
    }
    if (!event.leaves.empty()) {
      detail += " leaves=" + std::to_string(event.leaves.size());
    }
    if (!event.degrades.empty()) {
      detail += " degrades=" + std::to_string(event.degrades.size());
    }
    if (!event.faults.empty()) {
      detail += " faults=" + std::to_string(event.faults.size());
    }
    config_.recorder->record(event.time, event.channel, "event",
                             std::move(detail));
  }
  // Deferred channel opens whose backoff expired get their retry before the
  // event lands (the queue drains on the event clock, deterministically).
  if (!pending_opens_.empty()) retry_pending_opens(event.time, false);
  switch (event.type) {
    case EventType::kChannelOpen:
      try {
        on_channel_open(event);
      } catch (const engine::PlannerUnavailable&) {
        if (!config_.fault.planner_fallback) throw;
        // The broker grant was already released by on_channel_open's
        // unwind; queue the open and retry once the planner may be back.
        PendingOpen pending;
        pending.event = event;
        pending.backoff = config_.fault.planner_retry_initial;
        pending.next_retry = now_ + pending.backoff;
        pending_opens_.push_back(std::move(pending));
        metrics_.inc("fault.opens_deferred");
        if (config_.recorder != nullptr) {
          config_.recorder->record(now_, event.channel, "open_deferred",
                                   "planner outage; retry at " +
                                       std::to_string(pending_opens_.back()
                                                          .next_retry));
        }
      }
      break;
    case EventType::kChannelClose: on_channel_close(event); break;
    case EventType::kNodeJoin: on_node_join(event); break;
    case EventType::kNodeLeave: on_node_leave(event); break;
    case EventType::kRenegotiate: on_renegotiate(event); break;
    case EventType::kDegrade: on_degrade(event); break;
    case EventType::kFault: on_fault(event); break;
  }
  // Interned hot-path counters: every event is an array index, not a map
  // walk.
  metrics_.inc(hot_.events_total);
  auto& by_type = hot_.events_by_type[static_cast<std::size_t>(event.type)];
  if (!by_type) {
    by_type = metrics_.counter_handle(std::string("events.") +
                                      to_string(event.type));
  }
  metrics_.inc(*by_type);
  if (config_.profiler != nullptr) {
    config_.profiler->enter("runtime/step");
    config_.profiler->count("runtime/step", to_string(event.type));
  }
  // The broker is the single source of truth for admission accounting;
  // mirror its totals instead of double-counting at every call site.
  metrics_.set_counter(hot_.broker_admitted, broker_.admissions());
  metrics_.set_counter(hot_.broker_rejected, broker_.rejections());
  metrics_.set_counter(hot_.broker_released, broker_.releases());
  metrics_.set(hot_.broker_allocated, broker_.allocated());
  metrics_.set(hot_.channels_open, static_cast<double>(channels_.size()));
  metrics_.set(hot_.population_alive, static_cast<double>(alive_peers_));
  if (config_.dataplane.execute) {
    for (auto& [id, channel] : channels_) {
      export_dataplane_metrics(id, channel);
    }
  }
  if (config_.collect_timing) {
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    metrics_.observe(hot_.timing_event_loop, us);
    if (config_.profiler != nullptr && config_.profiler->wall_time()) {
      config_.profiler->add_wall("runtime/step", us);
    }
    if (config_.trace != nullptr) {
      config_.trace->complete(
          obs::Lane::kRuntime, "runtime", to_string(event.type),
          {{"channel", event.channel},
           {"channels_open", static_cast<int>(channels_.size())},
           {"alive", alive_peers_}},
          config_.trace->wall_durations() ? us : -1.0);
    }
  } else if (config_.trace != nullptr) {
    config_.trace->complete(obs::Lane::kRuntime, "runtime",
                            to_string(event.type),
                            {{"channel", event.channel},
                             {"channels_open", static_cast<int>(channels_.size())},
                             {"alive", alive_peers_}});
  }
}

std::string Runtime::channel_metric(int id, const char* what) const {
  return "channel." + std::to_string(id) + "." + what;
}

void Runtime::set_channel_gauges(int id, const Channel& channel) {
  metrics_.set(channel_metric(id, "fraction"), channel.grant.fraction);
  metrics_.set(channel_metric(id, "design_rate"),
               channel.session->design_rate());
  metrics_.set(channel_metric(id, "achieved_rate"),
               channel.session->current_rate());
}

void Runtime::build_session(int id, Channel& channel) {
  // Gather the alive population in runtime-id order, opens before guardeds
  // — the instance's caller-side numbering the slot map is derived from.
  std::vector<double> open_bw;
  std::vector<double> guarded_bw;
  std::vector<int> open_ids;
  std::vector<int> guarded_ids;
  const double fraction = channel.grant.fraction;
  for (int node = 1; node < static_cast<int>(nodes_.size()); ++node) {
    const Node& info = nodes_[static_cast<std::size_t>(node)];
    if (!info.alive) continue;
    if (info.guarded) {
      guarded_bw.push_back(info.bandwidth * fraction);
      guarded_ids.push_back(node);
    } else {
      open_bw.push_back(info.bandwidth * fraction);
      open_ids.push_back(node);
    }
  }
  Instance scaled(nodes_[0].bandwidth * fraction, std::move(open_bw),
                  std::move(guarded_bw));
  engine::SessionConfig session_config = config_.session;
  session_config.trace_id = id;  // repair/adapt spans name their channel
  channel.session = std::make_unique<engine::Session>(planner_, scaled,
                                                      session_config);
  if (channel.session->initial_plan_verified()) {
    // Channel opens and join replans verify their computed plans too —
    // without this the verify.* counters would only see leave events.
    metrics_.inc("verify.calls");
    metrics_.inc(channel.session->initial_plan_tier() ==
                         flow::VerifyTier::kAcyclicSweep
                     ? "verify.tier_sweep"
                     : "verify.tier_maxflow");
  }
  // original_id(slot) indexes [source, opens..., guardeds...] directly.
  channel.node_of_slot.assign(static_cast<std::size_t>(scaled.size()), 0);
  for (int slot = 1; slot < scaled.size(); ++slot) {
    const int input_id = scaled.original_id(slot);
    channel.node_of_slot[static_cast<std::size_t>(slot)] =
        input_id <= static_cast<int>(open_ids.size())
            ? open_ids[static_cast<std::size_t>(input_id - 1)]
            : guarded_ids[static_cast<std::size_t>(
                  input_id - 1 - static_cast<int>(open_ids.size()))];
  }
  if (config_.profiler != nullptr) {
    config_.profiler->enter("runtime/session/build");
    config_.profiler->count("runtime/session/build", "nodes",
                            static_cast<std::uint64_t>(scaled.size()));
  }
  set_channel_gauges(id, channel);
  // A live chunk stream follows every re-plan without restarting.
  sync_execution(id, channel);
}

void Runtime::on_channel_open(const Event& event) {
  if (channels_.count(event.channel) != 0) {
    throw std::invalid_argument("Runtime: channel already open");
  }
  const std::optional<Grant> granted =
      broker_.admit(event.channel, event.weight, event.fraction);
  if (config_.trace != nullptr) {
    if (granted) {
      config_.trace->instant(obs::Lane::kBroker, "runtime", "admit",
                             {{"channel", event.channel},
                              {"fraction", granted->fraction},
                              {"weight", event.weight}});
    } else {
      config_.trace->instant(obs::Lane::kBroker, "runtime", "reject",
                             {{"channel", event.channel},
                              {"requested", event.fraction}});
    }
  }
  if (config_.recorder != nullptr) {
    config_.recorder->record(now_, event.channel,
                             granted ? "admit" : "reject",
                             granted ? "fraction=" +
                                           std::to_string(granted->fraction)
                                     : "requested=" +
                                           std::to_string(event.fraction));
  }
  if (!granted) return;  // counted via broker_.rejections()
  Channel channel;
  channel.grant = *granted;
  try {
    if (config_.dataplane.execute) {
      // The operator's engine knobs pass through wholesale; the runtime
      // owns the stream lifecycle, so only these four are overridden.
      dataplane::ExecutionConfig exec_config = config_.dataplane.execution;
      exec_config.total_chunks = 0;  // live stream: paced until close/drain
      exec_config.emission_rate = 0.0;  // set by sync once the plan exists
      exec_config.start_time = now_;
      exec_config.seed = engine::mix64(
          config_.dataplane.execution.seed ^
          static_cast<std::uint64_t>(event.channel) * 0x9E3779B97F4A7C15ULL);
      exec_config.trace_id = event.channel;
      channel.open_time = now_;
      channel.execution = std::make_unique<dataplane::Execution>(exec_config);
      if (config_.control.enabled) {
        channel.controller =
            std::make_unique<control::Controller>(config_.control.controller);
        channel.last_control_time = now_;
        if (config_.control.slo_enabled) {
          channel.slo = std::make_unique<obs::SloMonitor>(
              event.channel, config_.control.slo, config_.recorder);
        }
      }
    }
    build_session(event.channel, channel);
  } catch (...) {
    // The broker grant must not leak when plan or stream setup throws
    // mid-open: a channel that never went live holds no capacity.
    broker_.release(event.channel);
    throw;
  }
  channels_.emplace(event.channel, std::move(channel));
}

void Runtime::on_channel_close(const Event& event) {
  // A close for a channel still waiting in the retry queue cancels the
  // pending open — its lifetime ended before the planner came back.
  for (auto pending = pending_opens_.begin();
       pending != pending_opens_.end();) {
    if (pending->event.channel == event.channel) {
      metrics_.inc("fault.opens_abandoned");
      pending = pending_opens_.erase(pending);
    } else {
      ++pending;
    }
  }
  const auto it = channels_.find(event.channel);
  if (it == channels_.end()) {
    // Scenarios emit open/close pairs without knowing whether the broker
    // admitted the open; closing a never-admitted channel is expected data.
    metrics_.inc("broker.close_ignored");
    return;
  }
  if (it->second.execution) {
    stream_log_.push_back(finalize_stream(event.channel, it->second));
  }
  broker_.release(event.channel);
  // Drop the per-channel gauges: under Poisson channel arrivals a
  // long-lived runtime would otherwise accumulate dead entries forever.
  metrics_.erase(channel_metric(event.channel, "fraction"));
  metrics_.erase(channel_metric(event.channel, "design_rate"));
  metrics_.erase(channel_metric(event.channel, "achieved_rate"));
  metrics_.erase(channel_metric(event.channel, "control.stragglers"));
  metrics_.erase(channel_metric(event.channel, "control.degraded_edges"));
  metrics_.erase(channel_metric(event.channel, "control.overrides"));
  metrics_.erase(channel_metric(event.channel, "slo.state"));
  channels_.erase(it);
}

void Runtime::on_node_join(const Event& event) {
  // Validate the whole batch before mutating: a rejected event must leave
  // the population untouched.
  for (const NodeSpec& spec : event.joins) {
    if (!is_valid_bandwidth(spec.bandwidth)) {
      throw std::invalid_argument("Runtime: invalid join bandwidth");
    }
    if (spec.wan) dataplane::check_link_profile(spec.profile, "Runtime: join");
  }
  for (const NodeSpec& spec : event.joins) {
    Node node;
    node.bandwidth = spec.bandwidth;
    node.guarded = spec.guarded;
    node.wan = spec.wan;
    node.profile = spec.profile;
    nodes_.push_back(node);
    ++alive_peers_;
  }
  if (event.joins.empty() || config_.join_policy == JoinPolicy::kIgnore) {
    return;
  }
  // Recruit the new uploaders: re-plan every live channel on the grown
  // platform. The shared cache dedupes channels whose scaled platforms
  // collide; the session's design rate resets to the new optimum.
  for (auto& [id, channel] : channels_) {
    try {
      build_session(id, channel);
    } catch (const engine::PlannerUnavailable&) {
      if (!config_.fault.planner_fallback) throw;
      // Planner down: the channel keeps its pre-join overlay (the joiner
      // is simply not recruited yet) and is rebuilt when the outage ends.
      if (channel.plan_stale_since < 0.0) channel.plan_stale_since = now_;
      metrics_.inc("fault.planner_faults");
      if (config_.recorder != nullptr) {
        config_.recorder->record(now_, id, "plan_stale",
                                 "join replan refused (planner outage)");
      }
      continue;
    }
    metrics_.inc("replans.join");
    ChurnReport report;
    report.time = now_;
    report.channel = id;
    report.type = EventType::kNodeJoin;
    report.full_replan = true;
    report.design_rate = channel.session->design_rate();
    report.achieved_rate = channel.session->current_rate();
    churn_log_.push_back(report);
    if (config_.recorder != nullptr) {
      config_.recorder->record(
          now_, id, "churn",
          "join replan design=" + std::to_string(report.design_rate));
    }
  }
}

void Runtime::on_node_leave(const Event& event) {
  // Validate the whole batch (range, aliveness, in-event duplicates)
  // before mutating: a rejected event must leave the population untouched.
  // Exception: a node that already died by kCrash is *skipped silently* —
  // a chaos plan may crash a peer whose scripted polite leave lands later,
  // and the crash already was its departure.
  std::set<int> departed;
  std::unordered_set<int> seen;
  for (const int node : event.leaves) {
    if (node <= 0 || node >= static_cast<int>(nodes_.size())) {
      throw std::invalid_argument("Runtime: departure of unknown node");
    }
    if (!seen.insert(node).second) {
      throw std::invalid_argument("Runtime: duplicate departure");
    }
    const Node& info = nodes_[static_cast<std::size_t>(node)];
    if (!info.alive) {
      if (info.crashed) continue;
      throw std::invalid_argument("Runtime: departure of dead node");
    }
    departed.insert(node);
  }
  if (departed.empty()) return;
  for (const int node : departed) {
    nodes_[static_cast<std::size_t>(node)].alive = false;
    --alive_peers_;
  }
  apply_departures(departed, now_);
}

void Runtime::apply_departures(const std::set<int>& departed, double when) {
  for (auto& [id, channel] : channels_) {
    // Translate runtime ids to this channel's session slots. Channels
    // opened after a joiner arrived include it; older ones may not.
    std::vector<int> slots;
    const std::vector<int>& node_of_slot = channel.node_of_slot;
    for (int slot = 1; slot < static_cast<int>(node_of_slot.size()); ++slot) {
      if (departed.count(node_of_slot[static_cast<std::size_t>(slot)]) != 0) {
        slots.push_back(slot);
      }
    }
    if (slots.empty()) continue;

    // Survivors in the session's *current sorted order*, opens first: this
    // is exactly the caller-side numbering sim::remove_nodes hands the
    // post-churn instance, so original_id() maps new slots back into it.
    std::vector<int> survivors;
    survivors.reserve(node_of_slot.size() - slots.size() - 1);
    for (int pass = 0; pass < 2; ++pass) {
      for (int slot = 1; slot < static_cast<int>(node_of_slot.size());
           ++slot) {
        const int node = node_of_slot[static_cast<std::size_t>(slot)];
        if (departed.count(node) != 0) continue;
        if (nodes_[static_cast<std::size_t>(node)].guarded == (pass == 1)) {
          survivors.push_back(node);
        }
      }
    }

    const engine::ChurnOutcome outcome = channel.session->on_departure(slots);
    const Instance& instance = channel.session->instance();
    std::vector<int> remapped(static_cast<std::size_t>(instance.size()),
                              node_of_slot[0]);
    for (int slot = 1; slot < instance.size(); ++slot) {
      remapped[static_cast<std::size_t>(slot)] =
          survivors[static_cast<std::size_t>(instance.original_id(slot) - 1)];
    }
    channel.node_of_slot = std::move(remapped);

    if (outcome.planner_fault) {
      // The session wanted a full re-plan but the planner was down; it kept
      // its incremental repair. Mark the channel stale for the rebuild pass
      // that runs when the outage ends.
      if (channel.plan_stale_since < 0.0) channel.plan_stale_since = when;
      metrics_.inc("fault.planner_faults");
      if (config_.recorder != nullptr) {
        config_.recorder->record(when, id, "plan_stale",
                                 "departure replan refused (planner outage)");
      }
    }
    metrics_.inc(outcome.full_replan ? "repairs.full" : "repairs.incremental");
    // Verification telemetry: tier counts are deterministic (structure
    // decides the tier), so they live beside the repair counters; the
    // wall-clock cost goes under timing.* like every other latency.
    metrics_.inc("verify.calls", static_cast<std::uint64_t>(outcome.verify_calls));
    metrics_.inc("verify.tier_sweep",
                 static_cast<std::uint64_t>(outcome.verify_sweep));
    metrics_.inc("verify.tier_maxflow",
                 static_cast<std::uint64_t>(outcome.verify_maxflow));
    if (config_.collect_timing) {
      metrics_.observe("timing.verify.us", outcome.verify_us);
    }
    if (config_.profiler != nullptr) {
      obs::Profiler& prof = *config_.profiler;
      prof.enter("runtime/session/churn");
      prof.count("runtime/session/churn", "departures",
                 static_cast<std::uint64_t>(outcome.departed));
      prof.count("runtime/session/churn",
                 outcome.full_replan ? "full_replans" : "incremental_repairs");
      prof.count("runtime/session/churn", "verify_calls",
                 static_cast<std::uint64_t>(outcome.verify_calls));
    }
    set_channel_gauges(id, channel);
    // Live-patch the running stream: the departed peers' in-flight chunks
    // drop, the repaired overlay's edges splice in — no restart.
    sync_execution(id, channel);
    ChurnReport report;
    report.time = when;
    report.channel = id;
    report.type = EventType::kNodeLeave;
    report.departed = outcome.departed;
    report.full_replan = outcome.full_replan;
    report.design_rate = channel.session->design_rate();
    report.achieved_rate = outcome.achieved_rate;
    churn_log_.push_back(report);
    if (config_.recorder != nullptr) {
      config_.recorder->record(
          when, id, "churn",
          std::string(outcome.full_replan ? "replan" : "repair") +
              " departed=" + std::to_string(outcome.departed) +
              " achieved=" + std::to_string(outcome.achieved_rate));
    }
    if (report.design_rate > 0.0) {
      metrics_.observe("channel.recovery_ratio",
                       report.achieved_rate / report.design_rate);
    }
  }
  // Departed peers carry no telemetry history forward: drop their
  // crash-silence counters and cached (blackout) samples everywhere.
  for (auto& [id, channel] : channels_) {
    (void)id;
    for (const int node : departed) {
      channel.silence_activity.erase(node);
      channel.silent_windows.erase(node);
      channel.last_node_sample.erase(node);
    }
    for (auto it = channel.last_edge_sample.begin();
         it != channel.last_edge_sample.end();) {
      if (departed.count(it->first.first) != 0 ||
          departed.count(it->first.second) != 0) {
        it = channel.last_edge_sample.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void Runtime::on_renegotiate(const Event& event) {
  const std::vector<Grant> changed = broker_.rebalance(event.utilization);
  for (const Grant& grant : changed) {
    const auto it = channels_.find(grant.channel);
    if (it == channels_.end()) continue;
    Channel& channel = it->second;
    const double factor = grant.fraction / channel.grant.fraction;
    channel.session->rescale(factor);
    channel.grant = grant;
    metrics_.inc("broker.renegotiated");
    if (config_.profiler != nullptr) {
      config_.profiler->enter("runtime/broker/rebalance");
      config_.profiler->count("runtime/broker/rebalance", "rescales");
    }
    if (config_.trace != nullptr) {
      config_.trace->instant(obs::Lane::kBroker, "runtime", "renegotiate",
                             {{"channel", grant.channel},
                              {"fraction", grant.fraction},
                              {"factor", factor}});
    }
    if (config_.recorder != nullptr) {
      config_.recorder->record(
          now_, grant.channel, "renegotiate",
          "fraction=" + std::to_string(grant.fraction));
    }
    set_channel_gauges(grant.channel, channel);
    // Renegotiated rates reach the stream live: pipes re-rate in place,
    // the source re-paces its emission.
    sync_execution(grant.channel, channel);
  }
}

void Runtime::on_degrade(const Event& event) {
  // Validate the whole batch before mutating (mirrors join/leave). A node
  // dead by kCrash is tolerated — a chaos plan may schedule a brownout for
  // a peer that crashed first; the degradation is simply moot.
  for (const Degradation& degrade : event.degrades) {
    if (degrade.node <= 0 ||
        degrade.node >= static_cast<int>(nodes_.size())) {
      throw std::invalid_argument("Runtime: degradation of unknown node");
    }
    const Node& info = nodes_[static_cast<std::size_t>(degrade.node)];
    if (!info.alive && !info.crashed) {
      throw std::invalid_argument("Runtime: degradation of dead node");
    }
    if (degrade.set_factor &&
        (!(degrade.capacity_factor > 0.0) || degrade.capacity_factor > 1.0)) {
      throw std::invalid_argument("Runtime: capacity_factor in (0, 1]");
    }
    if (degrade.set_profile && degrade.clear_profile) {
      throw std::invalid_argument(
          "Runtime: set_profile and clear_profile are exclusive");
    }
    if (degrade.set_profile) {
      dataplane::check_link_profile(degrade.profile, "Runtime: degradation");
    }
  }
  const dataplane::LinkProfile defaults{
      config_.dataplane.execution.loss_rate,
      config_.dataplane.execution.latency, 0.0};
  for (const Degradation& degrade : event.degrades) {
    Node& info = nodes_[static_cast<std::size_t>(degrade.node)];
    if (!info.alive) continue;  // crashed first: nothing left to degrade
    if (degrade.set_factor) info.capacity_factor = degrade.capacity_factor;
    if (degrade.set_profile) {
      info.wan = true;
      info.profile = degrade.profile;
    } else if (degrade.clear_profile) {
      info.wan = false;
      info.profile = dataplane::LinkProfile{};
    }
    metrics_.inc("degrade.nodes");
  }
  if (!config_.dataplane.execute) return;
  // The planner is deliberately not told; only the live executions change.
  for (auto& [id, channel] : channels_) {
    (void)id;
    if (!channel.execution) continue;
    for (const Degradation& degrade : event.degrades) {
      const Node& info = nodes_[static_cast<std::size_t>(degrade.node)];
      if (!info.alive) continue;
      const auto it = channel.dp_of_node.find(degrade.node);
      if (it == channel.dp_of_node.end()) continue;
      if (degrade.set_factor) {
        channel.execution->set_effective_capacity(
            it->second, info.capacity_factor < 1.0
                            ? info.capacity_factor * info.bandwidth *
                                  channel.grant.fraction
                            : -1.0);
      }
      if (degrade.set_profile) {
        channel.execution->set_egress_profile(it->second, degrade.profile);
      } else if (degrade.clear_profile) {
        channel.execution->set_egress_profile(it->second, defaults);
      }
    }
  }
}

void Runtime::on_fault(const Event& event) {
  // Validate every action before mutating (mirrors the other handlers).
  // The source (node 0) never faults: its crash would be a different paper.
  const auto check_node = [this](int node, FaultAction::Kind kind) {
    if (node <= 0 || node >= static_cast<int>(nodes_.size())) {
      throw std::invalid_argument(std::string("Runtime: ") + to_string(kind) +
                                  " of unknown node");
    }
  };
  for (const FaultAction& fault : event.faults) {
    switch (fault.kind) {
      case FaultAction::Kind::kCrash:
      case FaultAction::Kind::kCorruptEnd:
        check_node(fault.node, fault.kind);
        break;
      case FaultAction::Kind::kCorruptStart:
        check_node(fault.node, fault.kind);
        if (!(fault.rate >= 0.0) || fault.rate > 1.0) {
          throw std::invalid_argument("Runtime: corruption rate in [0, 1]");
        }
        break;
      case FaultAction::Kind::kPartitionStart:
        if (fault.group <= 0) {
          throw std::invalid_argument("Runtime: partition group must be > 0");
        }
        [[fallthrough]];
      case FaultAction::Kind::kBlackoutStart:
      case FaultAction::Kind::kBlackoutEnd:
        for (const int node : fault.nodes) check_node(node, fault.kind);
        break;
      case FaultAction::Kind::kPartitionHeal:
      case FaultAction::Kind::kPlannerOutageStart:
      case FaultAction::Kind::kPlannerOutageEnd:
        break;
    }
  }

  const auto note = [&](const FaultAction& fault, const std::string& detail) {
    metrics_.inc(std::string("fault.") + to_string(fault.kind));
    if (config_.trace != nullptr) {
      config_.trace->instant(obs::Lane::kRuntime, "runtime",
                             to_string(fault.kind),
                             {{"node", fault.node},
                              {"group", fault.group},
                              {"rate", fault.rate}});
    }
    if (config_.recorder != nullptr) {
      config_.recorder->record(now_, -1, to_string(fault.kind), detail);
    }
  };

  for (const FaultAction& fault : event.faults) {
    switch (fault.kind) {
      case FaultAction::Kind::kCrash: {
        Node& info = nodes_[static_cast<std::size_t>(fault.node)];
        if (!info.alive) break;  // idempotent: already dead (crash or leave)
        info.alive = false;
        info.crashed = true;
        info.crash_time = now_;
        --alive_peers_;
        // The dataplane sees the crash instantly (in-flight transmissions
        // from/to the peer die, its reservations release, pipes freeze);
        // the *sessions* do not — they keep planning around a ghost until
        // crash detection reads the silence off the telemetry.
        for (auto& [id, channel] : channels_) {
          (void)id;
          if (!channel.execution) continue;
          const auto it = channel.dp_of_node.find(fault.node);
          if (it != channel.dp_of_node.end()) {
            channel.execution->crash_node(it->second);
          }
        }
        note(fault, "node=" + std::to_string(fault.node));
        if (config_.fault.detect_crashes &&
            (!config_.dataplane.execute || !config_.control.enabled)) {
          // Detection is wanted but there is no telemetry path to read the
          // silence from: degrade to an immediate synthesized departure so
          // sessions stay consistent. With detection off the crash simply
          // festers — that is the un-hardened baseline the chaos tests
          // compare against.
          apply_departures({fault.node}, now_);
        }
        break;
      }
      case FaultAction::Kind::kPartitionStart: {
        for (const int node : fault.nodes) {
          Node& info = nodes_[static_cast<std::size_t>(node)];
          if (!info.alive) continue;
          info.partition_group = fault.group;
          for (auto& [id, channel] : channels_) {
            (void)id;
            if (!channel.execution) continue;
            const auto it = channel.dp_of_node.find(node);
            if (it != channel.dp_of_node.end()) {
              channel.execution->set_partition_group(it->second, fault.group);
            }
          }
        }
        note(fault, "group=" + std::to_string(fault.group) +
                        " nodes=" + std::to_string(fault.nodes.size()));
        break;
      }
      case FaultAction::Kind::kPartitionHeal: {
        std::vector<int> healed;
        for (std::size_t n = 0; n < nodes_.size(); ++n) {
          if (nodes_[n].partition_group != 0) {
            healed.push_back(static_cast<int>(n));
            nodes_[n].partition_group = 0;
          }
        }
        for (auto& [id, channel] : channels_) {
          if (channel.execution) {
            for (const auto& [rid, dp] : channel.dp_of_node) {
              (void)rid;
              channel.execution->set_partition_group(dp, 0);
            }
          }
          if (channel.controller) {
            // Everything the controller measured about the island it
            // measured across the cut — demotions, clamps and straggler
            // verdicts get pardoned, not probed back over half an hour.
            for (const int rid : healed) {
              channel.controller->forgive(rid);
              metrics_.inc("fault.heal_pardons");
            }
          }
          // Reconcile immediately: re-splice pipes to the session overlay
          // and re-pace emission so post-heal recovery starts this instant
          // (receivers re-request everything the partition swallowed).
          sync_execution(id, channel);
        }
        note(fault, "all groups collapse");
        break;
      }
      case FaultAction::Kind::kCorruptStart:
      case FaultAction::Kind::kCorruptEnd: {
        Node& info = nodes_[static_cast<std::size_t>(fault.node)];
        if (!info.alive) break;
        info.corrupt_rate =
            fault.kind == FaultAction::Kind::kCorruptStart ? fault.rate : 0.0;
        for (auto& [id, channel] : channels_) {
          (void)id;
          if (!channel.execution) continue;
          const auto it = channel.dp_of_node.find(fault.node);
          if (it != channel.dp_of_node.end()) {
            channel.execution->set_corrupt_rate(it->second, info.corrupt_rate);
          }
        }
        note(fault, "node=" + std::to_string(fault.node) +
                        " rate=" + std::to_string(info.corrupt_rate));
        break;
      }
      case FaultAction::Kind::kBlackoutStart:
      case FaultAction::Kind::kBlackoutEnd: {
        const bool dark = fault.kind == FaultAction::Kind::kBlackoutStart;
        for (const int node : fault.nodes) {
          nodes_[static_cast<std::size_t>(node)].blackout = dark;
        }
        note(fault, "nodes=" + std::to_string(fault.nodes.size()));
        break;
      }
      case FaultAction::Kind::kPlannerOutageStart: {
        outage_->down = true;
        note(fault, "planner down");
        break;
      }
      case FaultAction::Kind::kPlannerOutageEnd: {
        outage_->down = false;
        note(fault, "planner back; failures=" +
                        std::to_string(outage_->failures));
        // The outage is over: deferred opens get their final retry now and
        // channels serving a stale overlay rebuild through the planner.
        retry_pending_opens(now_, true);
        rebuild_stale_channels();
        break;
      }
    }
  }
  metrics_.set(hot_.population_alive, static_cast<double>(alive_peers_));
}

void Runtime::retry_pending_opens(double t, bool force) {
  for (auto it = pending_opens_.begin(); it != pending_opens_.end();) {
    if (!force && it->next_retry > t) {
      ++it;
      continue;
    }
    try {
      on_channel_open(it->event);
      metrics_.inc("fault.opens_recovered");
      if (config_.recorder != nullptr) {
        config_.recorder->record(t, it->event.channel, "open_retried",
                                 "recovered after planner outage");
      }
      it = pending_opens_.erase(it);
    } catch (const engine::PlannerUnavailable&) {
      it->backoff = std::min(it->backoff * 2.0,
                             config_.fault.planner_retry_max);
      it->next_retry = t + it->backoff;
      ++it;
    }
  }
}

void Runtime::rebuild_stale_channels() {
  for (auto& [id, channel] : channels_) {
    if (channel.plan_stale_since < 0.0) continue;
    try {
      build_session(id, channel);
    } catch (const engine::PlannerUnavailable&) {
      continue;  // overlapping outages: the next outage end retries
    }
    metrics_.inc("fault.stale_rebuilds");
    if (config_.recorder != nullptr) {
      config_.recorder->record(
          now_, id, "plan_rebuilt",
          "stale since " + std::to_string(channel.plan_stale_since));
    }
    channel.plan_stale_since = -1.0;
  }
}

const engine::Session* Runtime::session(int channel) const {
  const auto it = channels_.find(channel);
  return it == channels_.end() ? nullptr : it->second.session.get();
}

const dataplane::Execution* Runtime::execution(int channel) const {
  const auto it = channels_.find(channel);
  return it == channels_.end() ? nullptr : it->second.execution.get();
}

const control::Controller* Runtime::controller(int channel) const {
  const auto it = channels_.find(channel);
  return it == channels_.end() ? nullptr : it->second.controller.get();
}

const obs::SloMonitor* Runtime::slo_monitor(int channel) const {
  const auto it = channels_.find(channel);
  return it == channels_.end() ? nullptr : it->second.slo.get();
}

void Runtime::advance_executions(double t) {
  if (!config_.dataplane.execute) return;
  if (!config_.control.enabled) {
    advance_streams_to(t);
    return;
  }
  // Stop at every sampling boundary on the global interval grid so each
  // channel's controller observes its stream at deterministic instants,
  // regardless of how event times fall between them.
  const double interval = config_.control.controller.sample_interval;
  while (true) {
    const double boundary =
        static_cast<double>(control_ticks_done_ + 1) * interval;
    if (boundary > t) break;
    advance_streams_to(boundary);
    ++control_ticks_done_;
    control_tick(boundary);
  }
  advance_streams_to(t);
}

void Runtime::advance_streams_to(double t) {
  const double dt = t - dp_clock_;
  for (auto& [id, channel] : channels_) {
    (void)id;
    if (!channel.execution) continue;
    if (dt > 0.0) {
      // Integrate the design-rate promise while it was in force; the
      // StreamReport's sustained_ratio is measured against this.
      channel.design_integral += channel.session->design_rate() * dt /
                                 config_.dataplane.execution.chunk_size;
      // ... and the *emission* promise (the controller's straggler
      // reference: what the stream actually tried to deliver).
      channel.control_expected += channel.session->current_rate() * dt;
    }
    channel.execution->run_until(t);
  }
  dp_clock_ = t;
}

void Runtime::control_tick(double t) {
  // Everything downstream (session adapt spans, directive audit) is
  // stamped at this sampling boundary, not the triggering event's time.
  if (config_.trace != nullptr) config_.trace->set_clock(t);
  // Peers silent past the crash threshold in *any* hosting channel, applied
  // once across all of them after the sampling sweep.
  std::set<int> crash_candidates;
  for (auto& [id, channel] : channels_) {
    if (!channel.execution || !channel.controller) continue;
    const dataplane::Execution& exec = *channel.execution;
    const engine::Session& session = *channel.session;
    const double chunk = config_.dataplane.execution.chunk_size;
    metrics_.inc(hot_.control_samples);
    if (config_.telemetry != nullptr) feed_edge_telemetry(channel, exec);

    control::TickInputs inputs;
    inputs.now = t;
    inputs.window = t - channel.last_control_time;
    channel.last_control_time = t;
    inputs.expected_delta = channel.control_expected;
    inputs.chunk_size = chunk;
    channel.control_expected = 0.0;

    // Per-node samples in ascending runtime-id order (dp_of_node is an
    // ordered map); capacities come from the session's current slots.
    const std::vector<double> caps = session.capacities();
    std::map<int, double> granted;
    for (std::size_t slot = 0; slot < caps.size(); ++slot) {
      granted[channel.node_of_slot[slot]] = caps[slot];
    }
    const double warmup_grace = config_.control.controller.warmup_grace;
    std::map<int, int> rid_of_dp;
    for (const auto& [rid, dp] : channel.dp_of_node) {
      rid_of_dp[dp] = rid;
      const Node& info = nodes_[static_cast<std::size_t>(rid)];
      control::NodeSample sample;
      sample.id = rid;
      sample.nominal = info.bandwidth * channel.grant.fraction;
      const auto grant_it = granted.find(rid);
      sample.granted = grant_it == granted.end() ? 0.0 : grant_it->second;
      sample.delivered = exec.delivered(dp) * chunk;
      const dataplane::NodeProgress progress = exec.progress(dp);
      sample.judgeable = dp != 0 && progress.alive &&
                         progress.joined + warmup_grace <= t - inputs.window;
      if (info.blackout) {
        // Telemetry blackout: the collector is dark, so the controller
        // sees the last sample it actually observed, frozen — the exact
        // signature its stale-telemetry guard refuses to judge — never
        // fresh data it could not have collected.
        const auto cached = channel.last_node_sample.find(rid);
        if (cached != channel.last_node_sample.end()) sample = cached->second;
      } else {
        channel.last_node_sample[rid] = sample;
      }
      inputs.nodes.push_back(sample);
    }
    // Per-edge samples, re-keyed from execution ids to runtime ids and
    // re-sorted so the controller's iteration order is stable.
    for (const dataplane::EdgeStats& stats : exec.edge_stats()) {
      const auto from_it = rid_of_dp.find(stats.from);
      const auto to_it = rid_of_dp.find(stats.to);
      if (from_it == rid_of_dp.end() || to_it == rid_of_dp.end()) continue;
      control::EdgeSample sample;
      sample.from = from_it->second;
      sample.to = to_it->second;
      sample.rate = stats.rate;
      sample.busy_time = stats.busy_time;
      sample.completed = stats.completed;
      sample.sent = stats.sent;
      sample.lost = stats.lost;
      sample.attempts = stats.attempts;
      const std::pair<int, int> key{sample.from, sample.to};
      if (nodes_[static_cast<std::size_t>(sample.from)].blackout ||
          nodes_[static_cast<std::size_t>(sample.to)].blackout) {
        const auto cached = channel.last_edge_sample.find(key);
        if (cached != channel.last_edge_sample.end()) sample = cached->second;
      } else {
        channel.last_edge_sample[key] = sample;
      }
      inputs.edges.push_back(sample);
    }
    std::sort(inputs.edges.begin(), inputs.edges.end(),
              [](const control::EdgeSample& a, const control::EdgeSample& b) {
                return std::make_pair(a.from, a.to) <
                       std::make_pair(b.from, b.to);
              });

    if (config_.fault.detect_crashes && session.current_rate() > 0.0) {
      // Crash detection. A crashed peer sends no leave event, but its
      // signature is unmistakable: delivered stands still and every
      // adjacent pipe's attempts + sent counters freeze (try_send bails on
      // a dead endpoint *before* counting the attempt). A partitioned peer
      // is the opposite — senders keep attempting and losing — so
      // partitions never false-trigger. Counters are read raw from the
      // execution (the failure detector is not behind the blackout's
      // telemetry veil), but blacked-out peers still get the benefit of
      // the doubt: their silence counters pause rather than accumulate.
      std::map<int, std::uint64_t> activity;
      for (const dataplane::EdgeStats& stats : exec.edge_stats()) {
        const auto from_it = rid_of_dp.find(stats.from);
        const auto to_it = rid_of_dp.find(stats.to);
        if (from_it == rid_of_dp.end() || to_it == rid_of_dp.end()) continue;
        activity[from_it->second] += stats.attempts + stats.sent;
        activity[to_it->second] += stats.attempts + stats.sent;
      }
      const int source_rid = channel.node_of_slot[0];
      for (const auto& [rid, dp] : channel.dp_of_node) {
        if (rid == source_rid) continue;
        if (nodes_[static_cast<std::size_t>(rid)].blackout) continue;
        // Correlated silence across a whole region is a partition
        // signature, not a crash — real failure detectors gate on quorum
        // for exactly this reason. Pause the counter until the heal.
        if (nodes_[static_cast<std::size_t>(rid)].partition_group != 0) {
          continue;
        }
        const std::uint64_t observed =
            activity[rid] + static_cast<std::uint64_t>(exec.delivered(dp));
        const auto prev = channel.silence_activity.find(rid);
        if (prev != channel.silence_activity.end() &&
            prev->second == observed) {
          if (++channel.silent_windows[rid] >=
              config_.fault.crash_silence_windows) {
            crash_candidates.insert(rid);
          }
        } else {
          channel.silent_windows[rid] = 0;
        }
        channel.silence_activity[rid] = observed;
      }
    }

    const control::Directive directive = channel.controller->tick(inputs);
    if (config_.profiler != nullptr) {
      obs::Profiler& prof = *config_.profiler;
      prof.enter("runtime/control/decide");
      prof.count("runtime/control/decide", "node_samples",
                 inputs.nodes.size());
      prof.count("runtime/control/decide", "edge_samples",
                 inputs.edges.size());
      prof.count("runtime/control/decide", "straggler_trips",
                 static_cast<std::uint64_t>(directive.straggler_trips));
      prof.count("runtime/control/decide", "edge_trips",
                 static_cast<std::uint64_t>(directive.edge_trips));
      if (directive.act) prof.count("runtime/control/decide", "directives");
    }
    metrics_.inc("control.straggler_detections",
                 static_cast<std::uint64_t>(directive.straggler_trips));
    metrics_.inc("control.edge_detections",
                 static_cast<std::uint64_t>(directive.edge_trips));
    metrics_.set(channel_metric(id, "control.stragglers"),
                 static_cast<double>(directive.stragglers));
    metrics_.set(channel_metric(id, "control.degraded_edges"),
                 static_cast<double>(directive.degraded_edges));
    metrics_.set(channel_metric(id, "control.overrides"),
                 static_cast<double>(directive.factors.size()));
    metrics_.inc("control.stale_nodes",
                 static_cast<std::uint64_t>(directive.stale_nodes));
    metrics_.inc("control.stale_edges",
                 static_cast<std::uint64_t>(directive.stale_edges));
    if (directive.act) apply_directive(id, channel, directive, t);

    if (channel.slo) {
      // Fresh latency SLI input at the boundary (the same tee as the
      // per-event drain in export_dataplane_metrics — identical observation
      // sequence, just not deferred to the next event).
      for (const double latency : channel.execution->drain_latencies()) {
        observe_chunk_latency(channel, latency);
      }
      // Windowed sustained SLI: the worst judgeable node's delivered delta
      // against the emission promise over the last slo_sustained_window
      // ticks. Windowed — not cumulative — so a node crippled by a healed
      // partition recovers to ok once its recent windows look healthy
      // again, even though it can never make up the backlog.
      double worst = 1.0;
      const double expected_total =
          channel.slo_expected_total + inputs.expected_delta;
      const int window_ticks =
          std::max(1, config_.control.slo_sustained_window);
      if (static_cast<int>(channel.slo_history.size()) >= window_ticks) {
        const Channel::SloSnapshot& base = channel.slo_history.front();
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
            worst = std::min(worst,
                             (sample.delivered - prev->second) / promised);
          }
        }
      }
      channel.slo_expected_total = expected_total;
      Channel::SloSnapshot snap;
      snap.expected = expected_total;
      snap.delivered.reserve(inputs.nodes.size());
      for (const control::NodeSample& sample : inputs.nodes) {
        snap.delivered.emplace_back(sample.id, sample.delivered);
      }
      channel.slo_history.push_back(std::move(snap));
      while (static_cast<int>(channel.slo_history.size()) > window_ticks) {
        channel.slo_history.pop_front();
      }
      const std::uint64_t pages_before = channel.slo->pages();
      const std::uint64_t warns_before = channel.slo->warns();
      const obs::SloState state = channel.slo->evaluate(t, worst);
      metrics_.set(channel_metric(id, "slo.state"),
                   static_cast<double>(state));
      metrics_.observe("slo.sustained_worst", worst);
      metrics_.inc("slo.pages", channel.slo->pages() - pages_before);
      metrics_.inc("slo.warns", channel.slo->warns() - warns_before);
    }
  }
  if (!crash_candidates.empty()) detect_crashes(crash_candidates, t);
}

void Runtime::detect_crashes(const std::set<int>& candidates, double t) {
  std::set<int> departed;
  for (const int node : candidates) {
    Node& info = nodes_[static_cast<std::size_t>(node)];
    if (info.alive) {
      // The detector can evict a live-but-totally-silent peer too; after
      // crash_silence_windows of nothing the distinction no longer pays
      // its way — real failure detectors are exactly this ruthless.
      info.alive = false;
      --alive_peers_;
    }
    departed.insert(node);
    metrics_.inc("fault.crashes_detected");
    if (info.crashed) {
      metrics_.observe("fault.detect_latency", t - info.crash_time);
    }
    if (config_.trace != nullptr) {
      config_.trace->instant(obs::Lane::kRuntime, "runtime", "crash_detected",
                             {{"node", node}});
    }
    if (config_.recorder != nullptr) {
      config_.recorder->record(
          t, -1, "crash_detected",
          "node=" + std::to_string(node) + " silent for " +
              std::to_string(config_.fault.crash_silence_windows) +
              " windows");
    }
  }
  // One synthesized leave across *every* hosting channel at once: the
  // crashed peer's grants reclaim everywhere in the same boundary instead
  // of each channel's controller re-detecting on its own schedule.
  apply_departures(departed, t);
  metrics_.set(hot_.population_alive, static_cast<double>(alive_peers_));
}

void Runtime::apply_directive(int id, Channel& channel,
                              const control::Directive& directive, double t) {
  // Arm the time-to-recover SLI: the sustained ratio now has
  // recover_timeout seconds to climb back over its target.
  if (channel.slo) channel.slo->on_directive(t);
  const double rate_before = channel.session->current_rate();
  const Instance& instance = channel.session->instance();
  engine::AdaptationRequest request;
  request.force_replan = directive.force_replan;
  // Effective caps per current slot: the broker-granted nominal scaled by
  // the controller's capacity-class factor.
  request.capacities.resize(static_cast<std::size_t>(instance.size()));
  std::map<int, int> slot_of_node;
  for (int slot = 0; slot < instance.size(); ++slot) {
    const int rid = channel.node_of_slot[static_cast<std::size_t>(slot)];
    slot_of_node[rid] = slot;
    double factor = 1.0;
    const auto it = directive.factors.find(rid);
    if (it != directive.factors.end()) factor = it->second;
    request.capacities[static_cast<std::size_t>(slot)] =
        nodes_[static_cast<std::size_t>(rid)].bandwidth *
        channel.grant.fraction * factor;
  }
  for (const auto& [from, to, limit] : directive.edge_limits) {
    const auto from_it = slot_of_node.find(from);
    const auto to_it = slot_of_node.find(to);
    if (from_it == slot_of_node.end() || to_it == slot_of_node.end()) continue;
    request.edge_limits.emplace_back(from_it->second, to_it->second, limit);
  }

  const engine::ChurnOutcome outcome = channel.session->adapt(request);
  // Same node set, new sorted order: remap slots through original_id.
  const Instance& updated = channel.session->instance();
  std::vector<int> remapped(static_cast<std::size_t>(updated.size()));
  for (int slot = 0; slot < updated.size(); ++slot) {
    remapped[static_cast<std::size_t>(slot)] =
        channel.node_of_slot[static_cast<std::size_t>(
            updated.original_id(slot))];
  }
  channel.node_of_slot = std::move(remapped);

  if (outcome.planner_fault) {
    if (channel.plan_stale_since < 0.0) channel.plan_stale_since = t;
    metrics_.inc("fault.planner_faults");
    if (config_.recorder != nullptr) {
      config_.recorder->record(t, id, "plan_stale",
                               "adapt replan refused (planner outage)");
    }
  }
  if (config_.profiler != nullptr) {
    obs::Profiler& prof = *config_.profiler;
    prof.enter("runtime/session/adapt");
    prof.count("runtime/session/adapt", "demotions",
               static_cast<std::uint64_t>(directive.demotions));
    prof.count("runtime/session/adapt", "restores",
               static_cast<std::uint64_t>(directive.restores));
    prof.count("runtime/session/adapt", "reroutes",
               static_cast<std::uint64_t>(directive.reroutes));
    prof.count("runtime/session/adapt",
               outcome.full_replan ? "replans" : "repairs");
    prof.count("runtime/session/adapt", "verify_calls",
               static_cast<std::uint64_t>(outcome.verify_calls));
  }
  metrics_.inc("control.demotions",
               static_cast<std::uint64_t>(directive.demotions));
  metrics_.inc("control.restores",
               static_cast<std::uint64_t>(directive.restores));
  metrics_.inc("control.reroutes",
               static_cast<std::uint64_t>(directive.reroutes));
  metrics_.inc(outcome.full_replan ? "control.replans" : "control.repairs");
  metrics_.observe("control.drift", directive.drift);
  // Every adapted overlay went through flow verification (repair_scheme's
  // verifier or the planner's verify_plans) — fold into the verify.* view.
  metrics_.inc("verify.calls",
               static_cast<std::uint64_t>(outcome.verify_calls));
  metrics_.inc("verify.tier_sweep",
               static_cast<std::uint64_t>(outcome.verify_sweep));
  metrics_.inc("verify.tier_maxflow",
               static_cast<std::uint64_t>(outcome.verify_maxflow));
  if (config_.collect_timing) {
    metrics_.observe("timing.verify.us", outcome.verify_us);
  }
  if (rate_before > 0.0) {
    metrics_.observe("control.recovered_ratio",
                     outcome.achieved_rate / rate_before);
  }
  if (config_.telemetry != nullptr) {
    // Heavy-hitter view of the control plane: which nodes keep costing
    // capacity. Weight = milli-units of capacity factor surrendered, so a
    // node demoted 1.0 -> 0.25 outweighs ten 0.95 -> 0.90 nudges.
    for (const control::Evidence& ev : directive.evidence) {
      if (ev.node < 0 || std::strcmp(ev.action, "demote") != 0) continue;
      const double drop = std::max(0.0, ev.factor_before - ev.factor_after);
      metrics_.offer(
          hot_.node_demotions,
          "node:" + config_.telemetry_node_prefix + std::to_string(ev.node),
          std::max<std::uint64_t>(
              1, static_cast<std::uint64_t>(std::lround(drop * 1000.0))));
    }
  }
  set_channel_gauges(id, channel);
  // The adapted overlay splices into the running stream — no restart; the
  // source re-paces to the newly verified rate.
  sync_execution(id, channel);

  ControlReport report;
  report.time = t;
  report.channel = id;
  report.demotions = directive.demotions;
  report.restores = directive.restores;
  report.reroutes = directive.reroutes;
  report.stragglers = directive.stragglers;
  report.degraded_edges = directive.degraded_edges;
  report.drift = directive.drift;
  report.replan = directive.force_replan;
  report.full_replan = outcome.full_replan;
  report.rate_before = rate_before;
  report.rate_after = outcome.achieved_rate;
  report.evidence = directive.evidence;
  if (config_.trace != nullptr) {
    config_.trace->complete_at(
        obs::Lane::kControl, "control", "directive", t, 0.0,
        {{"channel", id},
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
      config_.trace->instant_at(obs::Lane::kControl, "control", ev.action, t,
                                {{"channel", id},
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
  if (config_.recorder != nullptr) {
    for (const control::Evidence& ev : directive.evidence) {
      std::string detail = std::string(ev.detector);
      if (ev.node >= 0) detail += " node=" + std::to_string(ev.node);
      if (ev.from >= 0) {
        detail += " edge=" + std::to_string(ev.from) + "->" +
                  std::to_string(ev.to);
      }
      detail += " ewma=" + std::to_string(ev.ewma) +
                " threshold=" + std::to_string(ev.threshold);
      config_.recorder->record(t, id, ev.action, std::move(detail));
    }
  }
  control_log_.push_back(report);
}

void Runtime::sync_execution(int id, Channel& channel) {
  (void)id;
  if (!channel.execution) return;
  dataplane::Execution& exec = *channel.execution;
  const engine::Session& session = *channel.session;
  const Instance& instance = session.instance();
  // Nodes: the session's current platform, keyed by runtime node id.
  std::map<int, int> slot_of_node;
  for (int slot = 0; slot < instance.size(); ++slot) {
    slot_of_node[channel.node_of_slot[static_cast<std::size_t>(slot)]] = slot;
  }
  for (auto it = channel.dp_of_node.begin(); it != channel.dp_of_node.end();) {
    if (slot_of_node.count(it->first) == 0) {
      // Departed (or dropped from the overlay): in-flight chunks vanish,
      // reservations release, survivors re-request elsewhere.
      exec.remove_node(it->second);
      channel.expected_at_join.erase(it->second);
      it = channel.dp_of_node.erase(it);
    } else {
      ++it;
    }
  }
  for (int slot = 0; slot < instance.size(); ++slot) {
    const int node = channel.node_of_slot[static_cast<std::size_t>(slot)];
    const auto it = channel.dp_of_node.find(node);
    const Node& info = nodes_[static_cast<std::size_t>(node)];
    int dp;
    if (it == channel.dp_of_node.end()) {
      dp = exec.add_node(instance.b(slot));
      channel.dp_of_node.emplace(node, dp);
      // A live-edge joiner is only on the hook for chunks emitted after it
      // arrived.
      channel.expected_at_join.emplace(dp, channel.design_integral);
      // The effective world follows the node into this stream: an already
      // WAN-classed, partitioned or corrupting peer joins on its current
      // fault state, not a clean slate.
      if (info.wan) exec.set_egress_profile(dp, info.profile);
      if (info.partition_group != 0) {
        exec.set_partition_group(dp, info.partition_group);
      }
      if (info.corrupt_rate > 0.0) exec.set_corrupt_rate(dp, info.corrupt_rate);
    } else {
      dp = it->second;
      // An abruptly crashed node stays in the session's platform until the
      // silence detector synthesizes its departure; until then its stream
      // slot is a corpse — nothing to budget or cap.
      if (!exec.node_alive(dp)) continue;
      exec.set_node_budget(dp, instance.b(slot));
    }
    // Brownout caps are absolute (a fraction of the *nominal* channel
    // grant), so they survive demotions and follow renegotiations.
    exec.set_effective_capacity(
        dp, info.capacity_factor < 1.0
                ? info.capacity_factor * info.bandwidth * channel.grant.fraction
                : -1.0);
  }
  // Pipes: splice the session's current overlay in, preserving in-flight
  // transmissions on edges that survived.
  const BroadcastScheme& scheme = session.scheme();
  std::vector<std::tuple<int, int, double>> desired;
  desired.reserve(static_cast<std::size_t>(scheme.edge_count()));
  for (int slot = 0; slot < scheme.num_nodes(); ++slot) {
    const int from = channel.dp_of_node.at(
        channel.node_of_slot[static_cast<std::size_t>(slot)]);
    // Splice around crashed-but-undetected nodes: the plan still names
    // them, but their pipes stay down until detection repairs the overlay.
    if (!exec.node_alive(from)) continue;
    for (const auto& [to_slot, rate] : scheme.out_edges(slot)) {
      const int to = channel.dp_of_node.at(
          channel.node_of_slot[static_cast<std::size_t>(to_slot)]);
      if (!exec.node_alive(to)) continue;
      desired.emplace_back(from, to, rate);
    }
  }
  exec.reconcile_edges(desired);
  // Emit at the verified rate of the overlay actually in service — the
  // stream can never outrun what the flow bound proves deliverable.
  exec.set_emission_rate(session.current_rate());
  channel.max_verified = std::max(channel.max_verified, session.current_rate());
}

void Runtime::export_dataplane_metrics(int id, Channel& channel) {
  if (!channel.execution) return;
  dataplane::Execution& exec = *channel.execution;
  // Delta export through interned handles.
  const auto delta = [this](obs::ShardRegistry::CounterHandle handle,
                            std::uint64_t current, std::uint64_t& seen) {
    if (current > seen) {
      metrics_.inc(handle, current - seen);
      seen = current;
    }
  };
  delta(hot_.dp_delivered, exec.delivered_chunks(), channel.seen_delivered);
  delta(hot_.dp_losses, exec.losses(), channel.seen_losses);
  delta(hot_.dp_retransmits, exec.retransmits(), channel.seen_retransmits);
  delta(hot_.dp_hol_stalls, exec.hol_stalls(), channel.seen_stalls);
  delta(hot_.dp_duplicates, exec.duplicates(), channel.seen_duplicates);
  for (const double latency : exec.drain_latencies()) {
    observe_chunk_latency(channel, latency);
  }
  metrics_.set(channel_metric(id, "dataplane.delivered"),
               static_cast<double>(exec.delivered_chunks()));
}

void Runtime::observe_chunk_latency(Channel& channel, double latency) {
  metrics_.observe(hot_.dp_chunk_latency, latency);
  if (channel.slo) channel.slo->observe_latency(latency);
}

void Runtime::feed_edge_telemetry(Channel& channel,
                                  const dataplane::Execution& exec) {
  const std::string& prefix = config_.telemetry_node_prefix;
  // This sweep runs at every control tick; both lookup structures are
  // reused scratch, so the steady state allocates nothing.
  std::vector<int>& rid_of_dp = rid_of_dp_scratch_;
  rid_of_dp.clear();
  for (const auto& [rid, dp] : channel.dp_of_node) {
    const auto slot = static_cast<std::size_t>(dp);
    if (slot >= rid_of_dp.size()) rid_of_dp.resize(slot + 1, -1);
    rid_of_dp[slot] = rid;
  }
  const auto rid_of = [&](int dp) {
    const auto slot = static_cast<std::size_t>(dp);
    return dp >= 0 && slot < rid_of_dp.size() ? rid_of_dp[slot] : -1;
  };
  exec.edge_stats_into(edge_stats_scratch_);
  for (const dataplane::EdgeStats& stats : edge_stats_scratch_) {
    const int from_rid = rid_of(stats.from);
    const int to_rid = rid_of(stats.to);
    if (from_rid < 0 || to_rid < 0) continue;
    auto& seen = channel.seen_edge_telemetry
                     [static_cast<std::uint64_t>(
                          static_cast<std::uint32_t>(from_rid))
                          << 32 |
                      static_cast<std::uint32_t>(to_rid)];
    // Pipes reset their counters when an overlay patch re-splices them; a
    // counter below its watermark restarts the delta from zero.
    const std::uint64_t lost_delta =
        stats.lost >= seen.first ? stats.lost - seen.first : stats.lost;
    const std::uint64_t stall_delta = stats.window_stalls >= seen.second
                                          ? stats.window_stalls - seen.second
                                          : stats.window_stalls;
    seen = {stats.lost, stats.window_stalls};
    if (lost_delta == 0 && stall_delta == 0) continue;
    const std::string node_key =
        "node:" + prefix + std::to_string(from_rid);
    if (lost_delta > 0) {
      metrics_.offer(hot_.edge_retransmits,
                     "edge:" + prefix + std::to_string(from_rid) + "->" +
                         std::to_string(to_rid),
                     lost_delta);
      metrics_.offer(hot_.node_retransmits, node_key, lost_delta);
    }
    if (stall_delta > 0) {
      metrics_.offer(hot_.node_stalls, node_key, stall_delta);
    }
  }
}

StreamReport Runtime::finalize_stream(int id, Channel& channel) {
  dataplane::Execution& exec = *channel.execution;
  // End of stream: stop the source and let the in-flight tail drain (in
  // virtual time) so backpressured chunks still count.
  exec.stop_emission();
  exec.run_to_completion();
  export_dataplane_metrics(id, channel);
  const dataplane::ExecutionReport executed =
      exec.report(channel.session->current_rate());
  StreamReport report;
  report.channel = id;
  report.open_time = channel.open_time;
  report.end_time = now_;
  report.emitted = executed.emitted;
  report.delivered_chunks = executed.delivered_chunks;
  report.retransmits = executed.retransmits;
  report.hol_stalls = executed.hol_stalls;
  report.duplicates = executed.duplicates;
  report.expected_chunks = channel.design_integral;
  report.achieved_rate = executed.achieved_rate;
  report.verified_rate = channel.max_verified;
  for (const auto& [node, dp] : channel.dp_of_node) {
    (void)node;
    if (dp == 0 || !exec.node_alive(dp)) continue;
    const double expected =
        channel.design_integral - channel.expected_at_join.at(dp);
    if (expected < 1.0) continue;  // too young for a meaningful ratio
    report.sustained_ratio =
        std::min(report.sustained_ratio, exec.delivered(dp) / expected);
  }
  // flow::Verifier cross-check: a windowed empirical rate may wobble a few
  // percent above the fluid bound on short windows, never materially.
  report.rate_within_verified =
      report.achieved_rate <= report.verified_rate * 1.02 + 1e-9;
  metrics_.inc("dataplane.streams_finalized");
  if (config_.trace != nullptr) {
    config_.trace->complete_at(obs::Lane::kExecution, "dataplane",
                               "stream_end", now_, 0.0,
                               {{"channel", id},
                                {"emitted", report.emitted},
                                {"delivered", report.delivered_chunks},
                                {"achieved", report.achieved_rate},
                                {"verified", report.verified_rate},
                                {"audit_ok", report.rate_within_verified}});
  }
  if (config_.recorder != nullptr) {
    config_.recorder->record(
        now_, id, "stream_end",
        "achieved=" + std::to_string(report.achieved_rate) +
            " verified=" + std::to_string(report.verified_rate));
  }
  if (!report.rate_within_verified) {
    metrics_.inc("dataplane.rate_audit_failures");
    // Budget audit failed: snapshot the channel's recent history to disk
    // (if a dump path is configured) while the cause is still in the ring.
    if (config_.recorder != nullptr) {
      config_.recorder->record_failure(
          now_, id, "Runtime::finalize_stream",
          {"achieved rate " + std::to_string(report.achieved_rate) +
           " exceeds verified " + std::to_string(report.verified_rate)});
    }
  }
  metrics_.observe("dataplane.sustained_ratio", report.sustained_ratio);
  metrics_.observe("dataplane.achieved_rate", report.achieved_rate);
  if (config_.telemetry != nullptr) {
    // Control-less runs never tick feed_edge_telemetry; the close-out
    // sweep attributes whatever accumulated since the last boundary.
    feed_edge_telemetry(channel, exec);
  }
  metrics_.erase(channel_metric(id, "dataplane.delivered"));
  channel.execution.reset();
  return report;
}

std::vector<StreamReport> Runtime::drain(double t) {
  std::vector<StreamReport> reports;
  if (!config_.dataplane.execute) return reports;
  if (t < dp_clock_) {
    throw std::invalid_argument("Runtime::drain: time went backwards");
  }
  now_ = std::max(now_, t);
  advance_executions(t);
  if (config_.trace != nullptr) config_.trace->set_clock(now_);
  for (auto& [id, channel] : channels_) {
    if (!channel.execution) continue;
    reports.push_back(finalize_stream(id, channel));
    stream_log_.push_back(reports.back());
  }
  return reports;
}

std::vector<std::string> Runtime::validate(double tol) const {
  std::vector<double> allocated(nodes_.size(), 0.0);
  for (const auto& [id, channel] : channels_) {
    (void)id;
    const std::vector<double> caps = channel.session->capacities();
    for (std::size_t slot = 0; slot < caps.size(); ++slot) {
      allocated[static_cast<std::size_t>(channel.node_of_slot[slot])] +=
          caps[slot];
    }
  }
  std::vector<std::string> violations;
  for (std::size_t node = 0; node < nodes_.size(); ++node) {
    const double budget = nodes_[node].bandwidth;
    if (allocated[node] > budget * (1.0 + tol) + tol) {
      violations.push_back("node " + std::to_string(node) +
                           " oversubscribed: allocated " +
                           std::to_string(allocated[node]) + " > budget " +
                           std::to_string(budget));
    }
  }
  // Broker audit: granted fractions fit the usable pool even after faulty
  // teardowns (a leaked grant from a mid-fault unwind would show up here).
  if (broker_.allocated() > broker_.usable() * (1.0 + tol) + tol) {
    violations.push_back(
        "broker oversubscribed: allocated " +
        std::to_string(broker_.allocated()) + " > usable " +
        std::to_string(broker_.usable()));
  }
  for (const auto& [id, channel] : channels_) {
    // Slot map <-> execution map consistency: every planned slot resolves
    // to exactly one live dataplane node.
    if (channel.execution) {
      for (std::size_t slot = 0; slot < channel.node_of_slot.size(); ++slot) {
        if (channel.dp_of_node.count(channel.node_of_slot[slot]) == 0) {
          violations.push_back(
              "channel " + std::to_string(id) + " slot " +
              std::to_string(slot) + " (node " +
              std::to_string(channel.node_of_slot[slot]) +
              ") missing from its execution map");
        }
      }
      // The stream's own no-orphan audit: windows, reservations and
      // in-flight copies reconcile even mid-crash / mid-partition.
      for (const std::string& violation : channel.execution->validate(tol)) {
        violations.push_back("channel " + std::to_string(id) +
                             " execution: " + violation);
      }
    }
  }
  // An invariant breach is exactly when the flight recorder earns its keep:
  // capture the violations beside the recent history (and auto-dump).
  if (!violations.empty() && config_.recorder != nullptr) {
    config_.recorder->record_failure(now_, -1, "Runtime::validate",
                                     violations);
  }
  return violations;
}

}  // namespace bmp::runtime
