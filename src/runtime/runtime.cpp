#include "bmp/runtime/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <unordered_set>

#include "bmp/obs/flight_recorder.hpp"
#include "bmp/obs/profiler.hpp"
#include "bmp/obs/trace.hpp"

namespace bmp::runtime {

namespace {

/// Backoff of channel opens deferred by a planner outage: the first retry
/// waits kPlannerRetryInitial seconds, each refused retry doubles the wait
/// up to kPlannerRetryMax.
constexpr double kPlannerRetryInitial = 0.5;
constexpr double kPlannerRetryMax = 4.0;

/// Validates a peer spec (`who` names the event in the error) and turns it
/// into a live population entry.
Node admit_peer(const NodeSpec& spec, const char* who) {
  if (!is_valid_bandwidth(spec.bandwidth)) {
    throw std::invalid_argument(std::string("Runtime: invalid ") + who +
                                " bandwidth");
  }
  if (spec.wan) {
    dataplane::check_link_profile(spec.profile,
                                  (std::string("Runtime: ") + who).c_str());
  }
  Node node;
  node.bandwidth = spec.bandwidth;
  node.guarded = spec.guarded;
  node.wan = spec.wan;
  node.profile = spec.profile;
  return node;
}

/// Fault events toggle the runtime-owned outage unless the caller wired in
/// an external one (tests driving the outage by hand).
engine::PlannerConfig with_outage(engine::PlannerConfig planner,
                                  engine::PlannerOutage* outage) {
  if (planner.outage == nullptr) planner.outage = outage;
  return planner;
}

}  // namespace

Runtime::Runtime(RuntimeConfig config, double source_bandwidth,
                 const std::vector<NodeSpec>& initial_peers)
    : config_(config),
      planner_(with_outage(config.planner, &planner_outage_), config_),
      broker_(config.broker_headroom),
      metrics_(config.telemetry != nullptr ? *config.telemetry
                                           : own_metrics_) {
  outage_ = planner_.config().outage;
  // One timing switch for the whole loop: a runtime that opts out of
  // timing.* metrics must not pay the per-verify clock reads inside its
  // sessions either.
  config_.session.verify.collect_timing = config_.collect_timing;
  if (!is_valid_bandwidth(source_bandwidth)) {
    throw std::invalid_argument("Runtime: invalid source bandwidth");
  }
  if (config_.control.enabled) {
    if (!config_.dataplane.execute) {
      throw std::invalid_argument(
          "Runtime: the control plane needs execution mode (its telemetry "
          "source) — set dataplane.execute");
    }
    // Checked now, not at the first channel open: a sample_interval <= 0
    // or NaN would spin advance_executions' boundary loop forever.
    control::check_config(config_.control.controller);
    if (config_.control.slo_enabled) obs::check_config(config_.control.slo);
  }
  nodes_.reserve(1 + initial_peers.size());
  Node source;
  source.bandwidth = source_bandwidth;
  nodes_.push_back(source);
  for (const NodeSpec& spec : initial_peers) {
    nodes_.push_back(admit_peer(spec, "peer"));
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
    if (config_.control.enabled) {
      hot_.timing_control_tick = m.sketch_handle("timing.control_tick_us");
    }
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
    const auto count = [&detail](const char* what, std::size_t n) {
      if (n > 0) detail += std::string(" ") + what + "=" + std::to_string(n);
    };
    count("joins", event.joins.size());
    count("leaves", event.leaves.size());
    count("degrades", event.degrades.size());
    count("faults", event.faults.size());
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
        // The broker grant was already released by on_channel_open's
        // unwind; queue the open and retry once the planner may be back.
        const double backoff = kPlannerRetryInitial;
        pending_opens_.push_back({event, now_ + backoff, backoff});
        metrics_.inc("fault.opens_deferred");
        if (config_.recorder != nullptr) {
          config_.recorder->record(
              now_, event.channel, "open_deferred",
              "planner outage; retry at " + std::to_string(now_ + backoff));
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
  // Interned hot-path counters: every event is an array index.
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
  for (auto& [id, channel] : channels_) channel.export_metrics();
  double us = -1.0;
  if (config_.collect_timing) {
    us = std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
             .count();
    metrics_.observe(hot_.timing_event_loop, us);
  }
  if (config_.trace != nullptr) {
    config_.trace->complete(
        obs::Lane::kRuntime, "runtime", to_string(event.type),
        {{"channel", event.channel},
         {"channels_open", static_cast<int>(channels_.size())},
         {"alive", alive_peers_}},
        config_.trace->wall_durations() ? us : -1.0);
  }
}

const Channel* Runtime::find(int channel) const {
  const auto it = channels_.find(channel);
  return it == channels_.end() ? nullptr : &it->second;
}

const engine::Session* Runtime::session(int channel) const {
  const Channel* found = find(channel);
  return found == nullptr ? nullptr : &found->session();
}

const dataplane::Execution* Runtime::execution(int channel) const {
  const Channel* found = find(channel);
  return found == nullptr ? nullptr : found->execution();
}

const control::Controller* Runtime::controller(int channel) const {
  const Channel* found = find(channel);
  return found == nullptr ? nullptr : found->controller();
}

const obs::SloMonitor* Runtime::slo_monitor(int channel) const {
  const Channel* found = find(channel);
  return found == nullptr ? nullptr : found->slo();
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
  try {
    channels_
        .try_emplace(event.channel, host_, event.channel, *granted, now_)
        .first->second.rebuild();
  } catch (...) {
    // The broker grant must not leak when plan or stream setup throws
    // mid-open: a channel that never went live holds no capacity.
    channels_.erase(event.channel);
    broker_.release(event.channel);
    throw;
  }
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
  if (it->second.execution() != nullptr) {
    stream_log_.push_back(it->second.finalize(now_));
  }
  broker_.release(event.channel);
  // Drop the per-channel series: under Poisson channel arrivals a
  // long-lived runtime would otherwise accumulate dead entries forever.
  it->second.erase_series();
  channels_.erase(it);
}

void Runtime::on_node_join(const Event& event) {
  // Validate the whole batch before mutating: a rejected event must leave
  // the population untouched.
  std::vector<Node> joiners;
  for (const NodeSpec& spec : event.joins) {
    joiners.push_back(admit_peer(spec, "join"));
  }
  nodes_.insert(nodes_.end(), joiners.begin(), joiners.end());
  alive_peers_ += static_cast<int>(joiners.size());
  if (event.joins.empty()) return;
  // Recruit the new uploaders: re-plan every live channel on the grown
  // platform. The shared cache dedupes channels whose scaled platforms
  // collide; the session's design rate resets to the new optimum.
  for (auto& [id, channel] : channels_) {
    try {
      channel.rebuild();
    } catch (const engine::PlannerUnavailable&) {
      // Planner down: the channel keeps its pre-join overlay (the joiner
      // is simply not recruited yet) and is rebuilt when the outage ends.
      channel.mark_stale(now_, "join replan refused (planner outage)");
      continue;
    }
    metrics_.inc("replans.join");
    churn_log_.push_back({now_, id, EventType::kNodeJoin, /*departed=*/0,
                          /*full_replan=*/true, channel.session().design_rate(),
                          channel.session().current_rate()});
    if (config_.recorder != nullptr) {
      config_.recorder->record(now_, id, "churn",
                               "join replan design=" +
                                   std::to_string(
                                       channel.session().design_rate()));
    }
  }
}

void Runtime::on_node_leave(const Event& event) {
  // Validate the whole batch (range, aliveness, in-event duplicates)
  // before mutating: a rejected event must leave the population untouched.
  // A crashed or evicted peer is *skipped silently*: its crash (or
  // eviction) already was its departure.
  std::set<int> departed;
  std::unordered_set<int> seen;
  for (const int node : event.leaves) {
    if (node <= 0 || node >= static_cast<int>(nodes_.size())) {
      throw std::invalid_argument("Runtime: departure of unknown node");
    }
    if (!seen.insert(node).second) {
      throw std::invalid_argument("Runtime: duplicate departure");
    }
    const Node::State state = nodes_[static_cast<std::size_t>(node)].state;
    if (state == Node::State::kLeft) {
      throw std::invalid_argument("Runtime: departure of dead node");
    }
    if (state == Node::State::kAlive) departed.insert(node);
  }
  if (departed.empty()) return;
  for (const int node : departed) {
    nodes_[static_cast<std::size_t>(node)].state = Node::State::kLeft;
    --alive_peers_;
  }
  apply_departures(departed, now_);
}

void Runtime::apply_departures(const std::set<int>& departed, double when) {
  for (auto& [id, channel] : channels_) {
    if (std::optional<ChurnReport> report = channel.absorb(departed, when)) {
      churn_log_.push_back(*report);
    }
  }
}

void Runtime::push_node_state(int rid) {
  const Node& node = nodes_[static_cast<std::size_t>(rid)];
  for (auto& [id, channel] : channels_) channel.apply_node_state(rid, node);
}

void Runtime::on_renegotiate(const Event& event) {
  for (const Grant& grant : broker_.rebalance(event.utilization)) {
    const auto it = channels_.find(grant.channel);
    if (it != channels_.end()) it->second.rescale(grant, now_);
  }
}

void Runtime::on_degrade(const Event& event) {
  // Validate the whole batch before mutating (mirrors join/leave). A node
  // dead by kCrash or evicted is tolerated — a chaos plan may schedule a
  // brownout for a peer that is already gone; the degradation is moot.
  for (const Degradation& degrade : event.degrades) {
    if (degrade.node <= 0 ||
        degrade.node >= static_cast<int>(nodes_.size())) {
      throw std::invalid_argument("Runtime: degradation of unknown node");
    }
    if (nodes_[static_cast<std::size_t>(degrade.node)].state ==
        Node::State::kLeft) {
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
  for (const Degradation& degrade : event.degrades) {
    Node& info = nodes_[static_cast<std::size_t>(degrade.node)];
    if (!info.alive()) continue;  // gone first: nothing left to degrade
    if (degrade.set_factor) info.capacity_factor = degrade.capacity_factor;
    if (degrade.set_profile) {
      info.wan = true;
      info.profile = degrade.profile;
    } else if (degrade.clear_profile) {
      info.wan = false;
      info.profile = dataplane::LinkProfile{};
    }
    metrics_.inc("degrade.nodes");
    // The planner is deliberately not told; only the live executions
    // change.
    push_node_state(degrade.node);
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
        if (!info.alive()) break;  // idempotent: already gone
        info.state = Node::State::kCrashed;
        info.crash_time = now_;
        --alive_peers_;
        // The dataplane sees the crash instantly (in-flight transmissions
        // from/to the peer die, its reservations release, pipes freeze);
        // the *sessions* do not — they keep planning around a ghost until
        // crash detection reads the silence off the telemetry.
        for (auto& [id, channel] : channels_) channel.crash(fault.node);
        note(fault, "node=" + std::to_string(fault.node));
        if (config_.fault.detect_crashes &&
            (!config_.dataplane.execute || !config_.control.enabled)) {
          // Detection is wanted but there is no telemetry to read the
          // silence from: synthesize the departure at once. With detection
          // off the crash festers — the un-hardened chaos baseline.
          apply_departures({fault.node}, now_);
        }
        break;
      }
      case FaultAction::Kind::kPartitionStart: {
        for (const int node : fault.nodes) {
          Node& info = nodes_[static_cast<std::size_t>(node)];
          if (!info.alive()) continue;
          info.partition_group = fault.group;
          push_node_state(node);
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
          for (const int rid : healed) {
            channel.apply_node_state(rid,
                                     nodes_[static_cast<std::size_t>(rid)]);
            channel.forgive(rid);
          }
          // Reconcile immediately: re-splice pipes to the session overlay
          // and re-pace emission so post-heal recovery starts this instant
          // (receivers re-request everything the partition swallowed).
          channel.sync();
        }
        note(fault, "all groups collapse");
        break;
      }
      case FaultAction::Kind::kCorruptStart:
      case FaultAction::Kind::kCorruptEnd: {
        Node& info = nodes_[static_cast<std::size_t>(fault.node)];
        if (!info.alive()) break;
        info.corrupt_rate =
            fault.kind == FaultAction::Kind::kCorruptStart ? fault.rate : 0.0;
        push_node_state(fault.node);
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
      it->backoff = std::min(it->backoff * 2.0, kPlannerRetryMax);
      it->next_retry = t + it->backoff;
      ++it;
    }
  }
}

void Runtime::rebuild_stale_channels() {
  for (auto& [id, channel] : channels_) {
    if (channel.stale_since() < 0.0) continue;
    try {
      channel.rebuild();
    } catch (const engine::PlannerUnavailable&) {
      continue;  // overlapping outages: the next outage end retries
    }
    metrics_.inc("fault.stale_rebuilds");
    if (config_.recorder != nullptr) {
      config_.recorder->record(
          now_, id, "plan_rebuilt",
          "stale since " + std::to_string(channel.stale_since()));
    }
    channel.clear_stale();
  }
}

void Runtime::advance_executions(double t) {
  if (!config_.dataplane.execute) return;
  // One contiguous segment of stream time (no control boundary inside).
  const auto advance_to = [this](double to) {
    for (auto& [id, channel] : channels_) channel.advance(to, to - dp_clock_);
    dp_clock_ = to;
  };
  // With control on, stop at every sampling boundary on the global interval
  // grid so each channel's controller observes its stream at deterministic
  // instants, regardless of how event times fall between them.
  const double interval = config_.control.controller.sample_interval;
  while (config_.control.enabled) {
    const double boundary =
        static_cast<double>(control_ticks_done_ + 1) * interval;
    if (boundary > t) break;
    advance_to(boundary);
    ++control_ticks_done_;
    control_tick(boundary);
  }
  advance_to(t);
}

void Runtime::control_tick(double t) {
  const auto start = config_.collect_timing
                         ? std::chrono::steady_clock::now()
                         : std::chrono::steady_clock::time_point{};
  // Everything downstream (session adapt spans, directive audit) is
  // stamped at this sampling boundary, not the triggering event's time.
  if (config_.trace != nullptr) config_.trace->set_clock(t);
  // Peers silent past the crash threshold in *any* hosting channel, applied
  // once across all of them after the sampling sweep.
  std::set<int> crash_candidates;
  for (auto& [id, channel] : channels_) {
    Channel::Tick tick = channel.tick(t);
    crash_candidates.insert(tick.silent.begin(), tick.silent.end());
    if (tick.control) control_log_.push_back(std::move(*tick.control));
  }
  if (!crash_candidates.empty()) detect_crashes(crash_candidates, t);
  if (config_.collect_timing) {
    metrics_.observe(hot_.timing_control_tick,
                     std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - start)
                         .count());
  }
}

void Runtime::detect_crashes(const std::set<int>& candidates, double t) {
  for (const int node : candidates) {
    Node& info = nodes_[static_cast<std::size_t>(node)];
    if (info.alive()) {
      // The detector can evict a live-but-totally-silent peer too (say, a
      // crashed relay's child); after kCrashSilenceWindows of nothing the
      // distinction no longer pays its way — real failure detectors are
      // exactly this ruthless. It is counted apart from real crashes.
      info.state = Node::State::kEvicted;
      --alive_peers_;
      metrics_.inc("fault.evictions");
    } else {
      metrics_.inc("fault.crashes_detected");
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
              std::to_string(kCrashSilenceWindows) +
              " windows");
    }
  }
  // One synthesized leave across *every* hosting channel at once: the
  // crashed peer's grants reclaim everywhere in the same boundary instead
  // of each channel's controller re-detecting on its own schedule.
  apply_departures(candidates, t);
  metrics_.set(hot_.population_alive, static_cast<double>(alive_peers_));
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
    if (channel.execution() == nullptr) continue;
    reports.push_back(channel.finalize(now_));
    stream_log_.push_back(reports.back());
  }
  return reports;
}

std::vector<std::string> Runtime::validate(double tol) const {
  std::vector<double> allocated(nodes_.size(), 0.0);
  std::vector<std::string> channel_violations;
  for (const auto& [id, channel] : channels_) {
    channel.validate(tol, allocated, channel_violations);
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
  violations.insert(violations.end(), channel_violations.begin(),
                    channel_violations.end());
  // An invariant breach is exactly when the flight recorder earns its keep:
  // capture the violations beside the recent history (and auto-dump).
  if (!violations.empty() && config_.recorder != nullptr) {
    config_.recorder->record_failure(now_, -1, "Runtime::validate",
                                     violations);
  }
  return violations;
}

}  // namespace bmp::runtime
