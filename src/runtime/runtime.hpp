// The multi-channel broadcast runtime: an event-driven service loop over
// self-contained Channels (channel.hpp) on one shared node population.
//
// Each channel is an engine::Session planned on a *scaled* platform: the
// CapacityBroker grants the channel a fraction g of every node's bounded
// multi-port upload budget, and the session plans against {g * b_i}. All
// sessions share one engine::Planner (sharded plan cache + thread pool), so
// identical survivor platforms across channels dedupe. The runtime keeps
// the population, the broker, the planner and its outage switch, deferred
// opens and stale-plan rebuilds, the logs and the control-grid barrier.
//
// The loop consumes a deterministic timestamped Event stream (see
// event.hpp, produced by runtime::Scenario):
//   kChannelOpen   broker admission -> plan -> channel goes live
//   kChannelClose  teardown, fraction reclaimed
//   kNodeLeave     every hosting channel absorbs the departure through
//                  Session::on_departure (incremental repair, full re-plan
//                  fallback)
//   kNodeJoin      population grows; every live channel re-plans (through
//                  the shared cache) to recruit the new uploaders
//   kRenegotiate   broker rebalances grants; affected sessions rescale
//                  exactly (no re-plan)
// Determinism contract: node ids are assigned sequentially in event order,
// channel maps are ordered, and nothing depends on wall-clock or thread
// timing, so identical (population, event stream) pairs produce identical
// metrics snapshots (timing.* excluded) and churn logs.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bmp/control/controller.hpp"
#include "bmp/dataplane/execution.hpp"
#include "bmp/engine/planner.hpp"
#include "bmp/engine/session.hpp"
#include "bmp/obs/hooks.hpp"
#include "bmp/obs/rollup.hpp"
#include "bmp/obs/slo.hpp"
#include "bmp/runtime/capacity_broker.hpp"
#include "bmp/runtime/channel.hpp"
#include "bmp/runtime/event.hpp"

namespace bmp::runtime {

/// Opt-in chunk-level execution: every channel drives a
/// dataplane::Execution on the scenario's clock — the source streams
/// chunks at the channel's verified rate, churn live-patches the running
/// execution (departed nodes' in-flight chunks dropped, repaired edges
/// spliced in, renegotiated rates applied) without restarting the stream,
/// and dataplane.* metrics report what the stream *actually achieved*
/// against what the planner promised.
struct DataPlaneConfig {
  bool execute = false;
  /// Per-stream engine knobs (chunk_size, window, latency, loss, warmup,
  /// ...), passed through to every channel's Execution. The runtime owns
  /// the stream lifecycle, so four fields are overridden per channel:
  /// total_chunks (0: live until close/drain), emission_rate (paced at the
  /// session's verified rate), start_time (channel open), and seed (forked
  /// per channel from this seed). Size chunk_size so a channel emits
  /// hundreds — not millions — of chunks over the scenario horizon.
  /// collect_latencies defaults on here (unlike standalone Executions):
  /// the runtime drains latencies into dataplane.chunk_latency per event,
  /// so the pending buffer stays bounded.
  dataplane::ExecutionConfig execution = [] {
    dataplane::ExecutionConfig config;
    config.collect_latencies = true;
    // Runtime streams are hardened by default: receivers checksum payloads
    // and re-request corrupted chunks (standalone Executions default to the
    // frozen comparison mode instead — see ExecutionConfig).
    config.verify_payloads = true;
    return config;
  }();
};

/// Silent control windows before crash detection declares a peer dead.
inline constexpr int kCrashSilenceWindows = 3;

/// Tolerance policy for injected faults (kFault events, src/fault). All
/// reactions are deterministic functions of the scenario clock and the
/// dataplane's counters, so chaos runs replay bit-identically.
///
/// Planner outages are always absorbed: channels keep serving their last
/// verified plan (bounded staleness — rebuilt when the outage ends), and
/// channel opens that failed against a down planner are queued and retried
/// with exponential backoff instead of being dropped.
struct FaultToleranceConfig {
  /// Crash detection: a crashed node sends no leave event, so the runtime
  /// watches each stream's counters on the control grid — a peer whose
  /// delivered count and adjacent pipe activity (attempts + sent) all stand
  /// still for kCrashSilenceWindows consecutive windows is declared dead
  /// and a churn repair is synthesized across *every* hosting channel at
  /// once.
  /// Requires execution + control mode (the telemetry source); crashes
  /// degrade to immediate synthesized departures without it.
  bool detect_crashes = true;
};

/// Opt-in adaptive control plane (requires execution mode): one
/// control::Controller per channel samples its stream's telemetry on the
/// scenario clock, detects stragglers and degraded edges, and closes the
/// loop — demotions / reroutes / full re-plans flow through
/// engine::Session::adapt (every adapted scheme flow-verified) and are
/// live-patched into the running execution. Deterministic: control.*
/// metrics and the control log replay byte-identically.
struct ControlConfig {
  bool enabled = false;
  control::ControllerConfig controller;
  /// Per-channel SLO monitor on the control sample grid (requires
  /// `enabled`): worst-node windowed sustained ratio, chunk-latency p99 and
  /// time-to-recover SLIs feed a multi-window burn-rate ok/warn/page state
  /// machine (obs::SloMonitor). Alert sequences are byte-identical across
  /// runs and planner thread counts.
  bool slo_enabled = false;
  obs::SloConfig slo;
};

/// The obs::Hooks base holds the run's sinks: the runtime hands them to its
/// planner and every channel's session and stream, and writes its own loop
/// events, admissions, faults and heavy-hitter tables into them.
struct RuntimeConfig : obs::Hooks {
  engine::PlannerConfig planner;  ///< shared cache / thread pool knobs
  engine::SessionConfig session;  ///< repair-vs-replan policy per channel
  double broker_headroom = 0.0;   ///< budget fraction withheld from channels
  /// Record timing.* wall latencies: the event loop and, with control on,
  /// each control boundary (timing.control_tick_us).
  bool collect_timing = true;
  DataPlaneConfig dataplane;      ///< chunk-level execution mode
  ControlConfig control;          ///< telemetry-driven adaptation
  FaultToleranceConfig fault;     ///< reaction policy for injected faults
  /// Disambiguates node/edge heavy-hitter keys across shards (each shard
  /// numbers its nodes from 0): keys render as
  /// `node:<prefix><id>` / `edge:<prefix><from>-><to>`. Checked with
  /// obs::check_label at construction (std::invalid_argument).
  std::string telemetry_node_prefix;
};

class Runtime {
 public:
  /// `initial_peers[k]` becomes runtime node id k + 1; id 0 is the source.
  /// Nodes joining later get the next ids in event order.
  Runtime(RuntimeConfig config, double source_bandwidth,
          const std::vector<NodeSpec>& initial_peers);
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Replays a time-sorted stream (throws on out-of-order events).
  void run(const std::vector<Event>& events);
  /// Processes one event; `event.time` must not precede the loop clock.
  void step(const Event& event);

  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] int alive_peers() const { return alive_peers_; }
  [[nodiscard]] std::size_t open_channels() const { return channels_.size(); }
  [[nodiscard]] const CapacityBroker& broker() const { return broker_; }
  [[nodiscard]] const engine::Planner& planner() const { return planner_; }
  /// The registry every series is recorded into: *config.telemetry when
  /// set, else the runtime's own.
  [[nodiscard]] const obs::ShardRegistry& metrics() const { return metrics_; }
  [[nodiscard]] const std::vector<ChurnReport>& churn_log() const {
    return churn_log_;
  }
  /// The live session of `channel`, nullptr if not open.
  [[nodiscard]] const engine::Session* session(int channel) const;
  /// The live chunk execution of `channel`; nullptr unless execution mode
  /// is on and the channel is open (and not yet drained).
  [[nodiscard]] const dataplane::Execution* execution(int channel) const;
  /// The channel's controller (keyed by runtime node ids); nullptr unless
  /// the control plane is on and the channel is open.
  [[nodiscard]] const control::Controller* controller(int channel) const;
  /// The channel's SLO monitor; nullptr unless control.slo_enabled and the
  /// channel is open.
  [[nodiscard]] const obs::SloMonitor* slo_monitor(int channel) const;
  /// Stream outcomes of closed (or drained) channels, in close order.
  [[nodiscard]] const std::vector<StreamReport>& stream_log() const {
    return stream_log_;
  }
  /// Adaptation actions taken by per-channel controllers, in tick order.
  [[nodiscard]] const std::vector<ControlReport>& control_log() const {
    return control_log_;
  }
  /// Execution mode: advances every live chunk stream to time `t`
  /// (>= now()), lets their tails drain, and finalizes a StreamReport per
  /// still-open channel — the end-of-scenario bookend after run(). The
  /// channels stay open; their executions are released. No-op per channel
  /// when execution mode is off.
  std::vector<StreamReport> drain(double t);

  /// Audits the cross-layer invariants: every node's summed per-channel
  /// allocation (Session::capacities()) stays within its multi-port budget
  /// b_i, the broker's granted fractions fit its usable pool, each
  /// channel's slot map and execution node map agree, and every live
  /// execution passes its own no-orphan audit (dataplane::Execution::
  /// validate — windows, reservations and in-flight copies reconcile even
  /// mid-fault). Returns human-readable violations (empty = ok); failures
  /// auto-dump the flight recorder when one is configured.
  [[nodiscard]] std::vector<std::string> validate(double tol = 1e-7) const;

 private:
  /// A channel open refused by a planner outage, queued for retry.
  struct PendingOpen {
    Event event;
    double next_retry = 0.0;
    double backoff = 0.0;
  };

  void on_channel_open(const Event& event);
  void on_channel_close(const Event& event);
  void on_node_join(const Event& event);
  void on_node_leave(const Event& event);
  void on_renegotiate(const Event& event);
  void on_degrade(const Event& event);
  void on_fault(const Event& event);

  /// The churn machinery of on_node_leave, callable on nodes already
  /// marked dead: every channel absorbs the departure. `when` stamps the
  /// reports (event time, or the control boundary that detected a crash).
  void apply_departures(const std::set<int>& departed, double when);
  /// Declares peers silent past the crash threshold dead (crashed ones
  /// detected, live ones evicted) and synthesizes their departure across
  /// all hosting channels at once.
  void detect_crashes(const std::set<int>& candidates, double t);
  /// Pushes node `rid`'s current state into every channel's stream.
  void push_node_state(int rid);
  /// Retries channel opens deferred by a planner outage whose backoff
  /// expired (`force` ignores the backoff — the outage just ended).
  void retry_pending_opens(double t, bool force);
  /// Re-plans channels serving a stale overlay once the planner is back.
  void rebuild_stale_channels();

  /// Execution mode: run every live stream up to `t` on the scenario clock.
  /// With the control plane on, the advance stops at every sampling
  /// boundary on the global interval grid and ticks each channel there.
  void advance_executions(double t);
  /// Ticks every channel at boundary `t`, logs the adaptations and applies
  /// crash detection across channels.
  void control_tick(double t);
  /// Registers the fixed-name series of every enabled subsystem and
  /// interns the hot-path handles (constructor helper).
  void register_series();
  [[nodiscard]] const Channel* find(int channel) const;

  RuntimeConfig config_;
  /// Planner-failure injection target, wired into the planner's config
  /// (declared first: the planner copies the pointer at construction).
  /// kPlannerOutageStart/End events toggle `outage_->down`.
  engine::PlannerOutage planner_outage_;
  engine::PlannerOutage* outage_ = nullptr;
  engine::Planner planner_;
  CapacityBroker broker_;
  obs::ShardRegistry own_metrics_;  ///< used when config_.telemetry is null
  obs::ShardRegistry& metrics_;     ///< *config_.telemetry or own_metrics_
  HotMetrics hot_;
  std::vector<Node> nodes_;  // index = runtime node id, 0 = source
  ChannelHost host_{config_, planner_, metrics_, hot_, nodes_};
  int alive_peers_ = 0;
  std::map<int, Channel> channels_;  // ordered: deterministic event handling
  std::vector<ChurnReport> churn_log_;
  std::vector<StreamReport> stream_log_;
  std::vector<ControlReport> control_log_;
  std::vector<PendingOpen> pending_opens_;
  double now_ = 0.0;
  double dp_clock_ = 0.0;  ///< time every live execution has reached
  /// Sampling boundaries processed so far: boundary k + 1 sits at
  /// (k + 1) * sample_interval on the scenario clock (an integer counter,
  /// so the grid never accumulates floating-point drift).
  std::int64_t control_ticks_done_ = 0;
};

}  // namespace bmp::runtime
