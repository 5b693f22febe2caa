// obs::Hooks — the five observability sinks as one value, and the only way
// a sink enters a layer. runtime::RuntimeConfig derives from it; the
// runtime hands its config (sliced to Hooks) to the planner, and each
// channel hands it to its session and its chunk stream. A standalone
// Planner, flow::Verifier, engine::Session or dataplane::Execution takes
// one as its trailing constructor argument.
//
// Every sink is a raw, non-owning, null-by-default pointer: null means off,
// and each instrumentation site pays one branch when it is. A sink must
// outlive every layer it is handed to. A layer reads only the sinks it
// instruments and ignores the rest.
#pragma once

namespace bmp::obs {

class FlightRecorder;
class LineageSink;
class Profiler;
class ShardRegistry;
class TraceSink;

struct Hooks {
  /// Cross-layer tracing: spans and instants on one lane per subsystem
  /// (runtime, planner, verify, session, broker, execution, control),
  /// stamped with the scenario clock — a whole run lands in one
  /// Perfetto-loadable timeline. Planner-pool worker threads never touch
  /// it, so the bytes do not depend on the planner's thread count.
  TraceSink* trace = nullptr;
  /// Flight recorder: recent scenario/control/churn events per channel,
  /// auto-dumped when Runtime::validate(), Execution::validate() or a
  /// stream's rate audit fails.
  FlightRecorder* recorder = nullptr;
  /// Performance attribution: deterministic work counters per phase path —
  /// the runtime loop (runtime/step, session build/churn/adapt, broker
  /// rebalance, control decide), the planner, the verifier tiers and the
  /// chunk streams.
  Profiler* profiler = nullptr;
  /// Chunk lineage: every execution records one hop per delivered chunk
  /// (records carry the channel id, so streams never collide) — the
  /// critical-path analyzer's input (obs::analyze_critical_path).
  LineageSink* lineage = nullptr;
  /// Sharded telemetry rollup (runtime only; null = the runtime keeps its
  /// own registry): the runtime records every series into this registry
  /// instead — Runtime::metrics() then returns it — and additionally keeps
  /// bounded top-K heavy-hitter tables of the worst nodes and edges by
  /// retransmit, stall and demotion weight. One registry per shard (it is
  /// single-threaded, like the runtime); shard snapshots roll up to a
  /// byte-identical global obs::RollupSnapshot regardless of merge order
  /// or planner thread count.
  ShardRegistry* telemetry = nullptr;
};

}  // namespace bmp::obs
