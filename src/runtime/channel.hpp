// One broadcast channel of the multi-channel runtime: a self-contained
// overlay on its broker-granted slice {g * b_i} of the shared population.
// A Channel owns its grant, its engine::Session and slot map, and in
// execution mode its chunk stream, controller, SLO monitor, crash-silence
// counters and telemetry watermarks. The Runtime (runtime.hpp) drives it
// through the bodies below and appends the ChurnReport / ControlReport /
// StreamReport values they return to its logs.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bmp/control/controller.hpp"
#include "bmp/dataplane/execution.hpp"
#include "bmp/engine/planner.hpp"
#include "bmp/engine/session.hpp"
#include "bmp/obs/rollup.hpp"
#include "bmp/obs/slo.hpp"
#include "bmp/runtime/capacity_broker.hpp"
#include "bmp/runtime/event.hpp"

namespace bmp::runtime {

struct RuntimeConfig;

/// One line of the runtime's churn audit trail: how a channel fared at one
/// population event. `design_rate` is the channel's *post-event* design
/// rate on its broker-granted capacity — the reference the acceptance bar
/// (achieved >= 0.85 x design) is measured against.
struct ChurnReport {
  double time = 0.0;
  int channel = -1;
  EventType type = EventType::kNodeLeave;  ///< kNodeLeave or kNodeJoin
  int departed = 0;
  bool full_replan = false;
  double design_rate = 0.0;
  double achieved_rate = 0.0;
};

/// What one channel's chunk stream actually delivered, produced when the
/// channel closes (or at drain()). The acceptance bar of the execution
/// mode: `sustained_ratio` — the worst node's delivered chunks against the
/// time-integral of the channel's design rate since that node joined —
/// must stay >= 0.85 through churn, with live patches only (no restart).
struct StreamReport {
  int channel = -1;
  double open_time = 0.0;
  double end_time = 0.0;
  int emitted = 0;
  std::uint64_t delivered_chunks = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t hol_stalls = 0;
  std::uint64_t duplicates = 0;
  /// Chunks the design rate promised over the channel's life (integral of
  /// the post-event design rate / chunk_size).
  double expected_chunks = 0.0;
  double sustained_ratio = 1.0;
  /// Min steady-state rate over surviving nodes (dataplane measurement).
  double achieved_rate = 0.0;
  /// Highest verified (flow) throughput the channel was ever planned at;
  /// the data plane can never beat the flow bound: achieved <= verified.
  double verified_rate = 0.0;
  bool rate_within_verified = true;
};

/// One line of the adaptation audit trail: what a channel's controller did
/// at one sampling boundary (only boundaries with actions are logged).
struct ControlReport {
  double time = 0.0;
  int channel = -1;
  int demotions = 0;
  int restores = 0;
  int reroutes = 0;
  int stragglers = 0;      ///< straggler count at decision time
  int degraded_edges = 0;
  double drift = 0.0;      ///< L1 capacity drift of the directive
  bool replan = false;     ///< controller escalated past the drift bound
  bool full_replan = false;///< session actually re-planned (incl. fallback)
  double rate_before = 0.0;
  double rate_after = 0.0; ///< flow-verified rate of the adapted overlay
  /// Causal audit: one record per demotion/restore/clamp/replan in the
  /// directive — why the controller acted (control::Evidence).
  std::vector<control::Evidence> evidence;
};

/// One peer of the shared population (index = runtime node id, 0 = the
/// source).
struct Node {
  /// kCrashed: dead in every stream at once, but planned around until the
  /// crash detector synthesizes its departure. kEvicted: a live but silent
  /// peer the detector declared dead (e.g. a crashed relay's child).
  enum class State { kAlive, kLeft, kCrashed, kEvicted };
  double bandwidth = 0.0;
  bool guarded = false;
  State state = State::kAlive;
  // Effective-world state (kDegrade events): applied to every channel's
  // execution, invisible to the planner — the control plane's problem.
  double capacity_factor = 1.0;
  bool wan = false;  ///< `profile` overrides the execution-config default
  dataplane::LinkProfile profile;
  // ---- fault state (kFault events) ----
  double crash_time = 0.0;   ///< when the crash landed (detection latency)
  int partition_group = 0;   ///< != group ⇒ traffic between them is lost
  bool blackout = false;     ///< telemetry frozen: controller sees cached
  double corrupt_rate = 0.0; ///< egress payload-corruption probability

  [[nodiscard]] bool alive() const { return state == State::kAlive; }
};

/// Interned hot-path series, registered once at runtime construction with
/// their subsystem and recorded through an array index; never erase()d.
struct HotMetrics {
  obs::ShardRegistry::CounterHandle events_total;
  obs::ShardRegistry::CounterHandle broker_admitted;
  obs::ShardRegistry::CounterHandle broker_rejected;
  obs::ShardRegistry::CounterHandle broker_released;
  obs::ShardRegistry::GaugeHandle broker_allocated;
  obs::ShardRegistry::GaugeHandle channels_open;
  obs::ShardRegistry::GaugeHandle population_alive;
  /// Per event type, registered on the type's first event.
  std::optional<obs::ShardRegistry::CounterHandle> events_by_type[8];
  obs::ShardRegistry::SketchHandle timing_event_loop;
  /// Wall time of one control boundary (every channel's tick, adapt and
  /// sync, plus crash detection); registered iff timing and control are on.
  obs::ShardRegistry::SketchHandle timing_control_tick;
  obs::ShardRegistry::CounterHandle dp_delivered;
  obs::ShardRegistry::CounterHandle dp_losses;
  obs::ShardRegistry::CounterHandle dp_retransmits;
  obs::ShardRegistry::CounterHandle dp_hol_stalls;
  obs::ShardRegistry::CounterHandle dp_duplicates;
  obs::ShardRegistry::SketchHandle dp_chunk_latency;
  obs::ShardRegistry::CounterHandle control_samples;
  // Top-K heavy hitters: registered only when config.telemetry is set.
  obs::ShardRegistry::TopKHandle node_retransmits;
  obs::ShardRegistry::TopKHandle node_stalls;
  obs::ShardRegistry::TopKHandle edge_retransmits;
  obs::ShardRegistry::TopKHandle node_demotions;
};

/// What every channel shares with its runtime; all owned by the runtime.
struct ChannelHost {
  /// The runtime's knobs; its obs::Hooks base is what the channel hands to
  /// its session and stream.
  const RuntimeConfig& config;
  engine::Planner& planner;
  obs::ShardRegistry& metrics;
  const HotMetrics& hot;
  const std::vector<Node>& nodes;
};

class Channel {
 public:
  /// Sets up the stream, controller and SLO monitor per the config; the
  /// overlay itself comes from the first rebuild().
  Channel(const ChannelHost& host, int id, const Grant& grant, double now);

  [[nodiscard]] const engine::Session& session() const { return *session_; }
  /// nullptr unless execution mode is on (and not yet finalized).
  [[nodiscard]] const dataplane::Execution* execution() const {
    return execution_.get();
  }
  [[nodiscard]] const control::Controller* controller() const {
    return controller_.get();
  }
  [[nodiscard]] const obs::SloMonitor* slo() const { return slo_.get(); }

  /// (Re)plans the channel on the current alive population scaled by its
  /// granted fraction, rebuilds the slot map and syncs the stream. Throws
  /// engine::PlannerUnavailable during a planner outage.
  void rebuild();
  /// The session absorbs the departure of `departed` runtime ids (repair /
  /// re-plan) and the stream live-patches; nullopt when the channel hosted
  /// none of them. `when` stamps the report.
  std::optional<ChurnReport> absorb(const std::set<int>& departed,
                                    double when);
  /// Applies a renegotiated grant: exact session rescale, live re-rate.
  void rescale(const Grant& grant, double now);
  /// Pushes node `rid`'s effective-world and fault state into the stream.
  void apply_node_state(int rid, const Node& node);
  /// Kills `rid` in the stream at once (a kCrash fault); the session keeps
  /// planning around it until crash detection synthesizes the departure.
  void crash(int rid);
  /// Controller pardon for `rid` (a healed partition), if control is on.
  void forgive(int rid);
  /// Publishes the channel gauges and reconciles the stream with the
  /// session: nodes added / removed, pipes spliced to the current overlay,
  /// emission paced at the verified rate. Runs after every session change.
  void sync();
  /// Runs the stream to `t`, integrating the design and emission promises
  /// over the `dt` seconds since the last advance.
  void advance(double t, double dt);

  struct Tick {
    std::vector<int> silent;  ///< past the crash threshold, ascending id
    std::optional<ControlReport> control;  ///< when the controller acted
  };
  /// One control-grid boundary: samples the stream's telemetry, runs the
  /// crash-silence detector, the controller (adapt() on a directive) and
  /// the SLO monitor.
  Tick tick(double t);
  /// Applies a directive through engine::Session::adapt and splices the
  /// adapted overlay into the stream.
  ControlReport adapt(const control::Directive& directive, double t);

  /// Exports the stream's counter deltas / latencies into dataplane.*.
  void export_metrics();
  /// Lets the stream tail drain, reports, and releases the execution.
  StreamReport finalize(double now);
  /// Drops every per-channel series (channel close).
  void erase_series();

  /// Adds the session's per-node allocation into `allocated` (indexed by
  /// runtime id) and appends slot-map / stream audit violations.
  void validate(double tol, std::vector<double>& allocated,
                std::vector<std::string>& violations) const;

  /// >= 0: the session wanted a full re-plan but the planner was down; it
  /// kept serving the incremental repair since this instant.
  [[nodiscard]] double stale_since() const { return stale_since_; }
  /// A refused re-plan: stale mark, counter and recorder line.
  void mark_stale(double when, const char* cause);
  void clear_stale() { stale_since_ = -1.0; }

 private:
  /// Per tick: the windowed sustained SLI's snapshot — the emission promise
  /// integral and each node's delivered bytes at that boundary.
  struct SloSnapshot {
    double expected = 0.0;
    /// (node id, delivered) rows in ascending id order — built from the
    /// already-sorted control samples, so the windowed comparison is a
    /// two-pointer walk with no per-tick tree allocations.
    std::vector<std::pair<int, double>> delivered;
  };

  /// node_of_slot_[slot] = caller[instance.original_id(slot)]: maps sorted
  /// slots back through the numbering the session's instance came from.
  void remap_slots(const std::vector<int>& caller);
  /// The bookkeeping of one churn / adapt outcome: verify.* counters,
  /// timing.verify.us, and the stale mark when the planner refused.
  void record(const engine::ChurnOutcome& outcome, double when,
              const char* cause);
  /// The stream's id of runtime node `rid`; -1 when not hosted.
  [[nodiscard]] int dp_of(int rid) const;
  void push_state(int dp, const Node& node);
  [[nodiscard]] std::string series(const char* what) const;
  /// Reads every pipe's counters once, re-keyed to runtime ids.
  void read_edges();
  /// Streams per-edge (lost, window_stall) deltas into the registry's
  /// heavy-hitter tables (telemetry hook).
  void feed_edge_telemetry();
  void evaluate_slo(const control::TickInputs& inputs, double t);
  /// dataplane.chunk_latency plus the SLO window.
  void observe_chunk_latency(double latency);

  const ChannelHost& host_;
  const int id_;
  Grant grant_;
  std::unique_ptr<engine::Session> session_;
  /// The gauges sync() publishes, interned by its first call (so they
  /// appear when by-name writes would create them); erase_series() ends
  /// them with the channel.
  struct SyncGauges {
    obs::ShardRegistry::GaugeHandle fraction;
    obs::ShardRegistry::GaugeHandle design_rate;
    obs::ShardRegistry::GaugeHandle achieved_rate;
  };
  std::optional<SyncGauges> sync_gauges_;
  /// Session slot (sorted instance id) -> runtime node id; slot 0 = source.
  std::vector<int> node_of_slot_;
  double stale_since_ = -1.0;
  // ---- execution mode ----
  std::unique_ptr<dataplane::Execution> execution_;
  /// Runtime node id -> execution node id; -1 when not hosted. Walked in
  /// ascending runtime id wherever order reaches an output.
  std::vector<int> dp_of_rid_;
  /// Per execution node: channel design integral at its join (so a late
  /// joiner is only expected chunks emitted after it arrived).
  std::vector<double> expected_at_join_;
  double open_time_ = 0.0;
  double design_integral_ = 0.0;  ///< integral of design rate / chunk_size
  double max_verified_ = 0.0;     ///< peak verified rate over the life
  /// read_edges() output and its execution id -> runtime id map (-1:
  /// unmapped); reused so the steady state allocates nothing.
  std::vector<dataplane::EdgeStats> edges_;
  std::vector<int> rid_of_dp_;
  // ---- control plane ----
  std::unique_ptr<control::Controller> controller_;
  double control_expected_ = 0.0;   ///< emission integral since last tick
  double last_control_time_ = 0.0;  ///< previous sampling boundary
  // ---- SLO monitor ----
  std::unique_ptr<obs::SloMonitor> slo_;
  std::deque<SloSnapshot> slo_history_;
  double slo_expected_total_ = 0.0;
  // counter snapshots for delta export into the metrics registry
  std::uint64_t seen_delivered_ = 0;
  std::uint64_t seen_losses_ = 0;
  std::uint64_t seen_retransmits_ = 0;
  std::uint64_t seen_stalls_ = 0;
  std::uint64_t seen_duplicates_ = 0;
  // ---- fault tolerance ----
  /// Crash-silence tracking per runtime node id: the last observed
  /// activity counter (delivered + adjacent attempts + sent) and how many
  /// consecutive control windows it stood still.
  /// Indexed by runtime node id.
  struct Silence {
    std::uint64_t activity = 0;
    int windows = 0;
    bool tracked = false;  ///< false until the node's first silence check
  };
  std::vector<Silence> silence_;
  /// Last telemetry actually observed per node/edge — substituted for
  /// blacked-out nodes, so a blackout freezes what the controller sees
  /// (the stale-telemetry guard's input) instead of leaking fresh data.
  /// Nodes by runtime id; edges sorted by (from, to), one row per pipe
  /// ever sampled (a re-spliced pipe finds its row again).
  std::vector<std::optional<control::NodeSample>> last_node_sample_;
  std::vector<control::EdgeSample> last_edge_sample_;
  /// Per-tick scratch: edges_ rows in (from, to) order, and the cache rows
  /// of pipes first seen this tick.
  std::vector<std::pair<std::uint64_t, std::size_t>> edge_order_;
  std::vector<control::EdgeSample> edge_sample_scratch_;
  /// Heavy-hitter delta tracking (telemetry hook): last (lost,
  /// window_stalls) seen per edge, keyed by packed runtime ids
  /// (from << 32 | to). Hash map: looked up only, never iterated, so
  /// the unordered layout cannot leak into the deterministic output.
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>>
      seen_edge_telemetry_;
};

}  // namespace bmp::runtime
