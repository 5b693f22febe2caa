// Observability tests: TraceSink determinism and drop accounting, the
// flight recorder's ring/dump mechanics and its Execution::validate hook,
// and by-name ShardRegistry edge cases (lifetime quantiles, erasing live
// metrics, export byte-identity across planner threading). The exporter
// goldens live with the rollup goldens in test_rollup.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bmp/dataplane/execution.hpp"
#include "bmp/engine/planner.hpp"
#include "bmp/obs/export.hpp"
#include "bmp/obs/flight_recorder.hpp"
#include "bmp/obs/trace.hpp"
#include "bmp/obs/rollup.hpp"
#include "test_helpers.hpp"

namespace bmp {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// ---------------------------------------------------------------- TraceSink

TEST(TraceSink, CountsSpansAndInstantsSeparately) {
  obs::TraceSink sink;
  sink.set_clock(1.5);
  sink.complete(obs::Lane::kPlanner, "engine", "plan", {{"n", 10}});
  sink.instant(obs::Lane::kControl, "control", "demote",
               {{"node", 3}, {"ewma", 0.7}});
  sink.complete_at(obs::Lane::kExecution, "dataplane", "stream_end", 2.0, 0.0);
  EXPECT_EQ(sink.events(), 3u);
  EXPECT_EQ(sink.spans(), 2u);
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(TraceSink, JsonIsWellFormedAndCarriesSequenceNumbers) {
  obs::TraceSink sink;
  sink.set_clock(0.25);
  sink.complete(obs::Lane::kVerify, "flow", "verify",
                {{"tier", "sweep"}, {"throughput", 3.25}, {"ok", true}});
  sink.instant(obs::Lane::kBroker, "runtime", "admit", {{"channel", 0}});
  const std::string json = sink.to_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Lane metadata names the tracks; both events carry their append seq.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"seq\":0"), std::string::npos);
  EXPECT_NE(json.find("\"seq\":1"), std::string::npos);
  // Sim time 0.25 s renders as 250000 microseconds.
  EXPECT_NE(json.find("\"ts\":250000.000"), std::string::npos);
  // Instants need a scope to render in Perfetto.
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  // No wall_us unless opted in.
  EXPECT_EQ(json.find("wall_us"), std::string::npos);
}

TEST(TraceSink, DropsPastCapacityInsteadOfGrowing) {
  obs::TraceConfig config;
  config.max_events = 4;
  obs::TraceSink sink(config);
  for (int i = 0; i < 10; ++i) {
    sink.instant(obs::Lane::kRuntime, "runtime", "event", {{"i", i}});
  }
  EXPECT_EQ(sink.events(), 4u);
  EXPECT_EQ(sink.dropped(), 6u);
  const std::string json = sink.to_json();
  EXPECT_NE(json.find("\"dropped\":6"), std::string::npos);
}

TEST(TraceSink, PlanBatchTraceByteIdenticalAcrossThreadCounts) {
  // The determinism contract on the planner pool: per-item spans are
  // emitted post-barrier in work-item order, so 1 worker and 4 workers
  // serialize to the same bytes.
  util::Xoshiro256 rng(17);
  std::vector<engine::PlanRequest> stream;
  for (int r = 0; r < 12; ++r) {
    util::Xoshiro256 fork = rng.fork(static_cast<std::uint64_t>(r % 4));
    stream.push_back(engine::PlanRequest{
        testing::random_instance(fork, 8, 4), engine::Algorithm::kAuto, 0});
  }
  std::vector<std::string> traces;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    obs::TraceSink sink;
    engine::PlannerConfig config;
    config.threads = threads;
    obs::Hooks hooks;
    hooks.trace = &sink;
    engine::Planner planner(config, hooks);
    planner.plan_batch(stream);
    // One batch span + one per *distinct* computation (the batch dedupes
    // the 12 requests down to 4 platforms).
    EXPECT_EQ(sink.spans(), 5u);
    traces.push_back(sink.to_json());
  }
  EXPECT_EQ(traces[0], traces[1]);
}

TEST(TraceSink, WallDurationsOptInBreaksNothingButAddsArg) {
  obs::TraceConfig config;
  config.wall_durations = true;
  obs::TraceSink sink(config);
  obs::Hooks hooks;
  hooks.trace = &sink;
  engine::Planner planner({}, hooks);
  planner.plan(testing::fig1_instance(), engine::Algorithm::kAcyclic, 0);
  EXPECT_EQ(sink.spans(), 1u);
  EXPECT_NE(sink.to_json().find("\"wall_us\":"), std::string::npos);
}

// ----------------------------------------------------------- FlightRecorder

TEST(FlightRecorder, RingEvictsOldestPerChannel) {
  obs::FlightRecorderConfig config;
  config.per_channel = 3;
  obs::FlightRecorder recorder(config);
  for (int i = 0; i < 5; ++i) {
    recorder.record(0.1 * i, /*channel=*/0, "event", std::to_string(i));
  }
  recorder.record(9.0, /*channel=*/1, "event", "other-lane");
  EXPECT_EQ(recorder.recorded(), 6u);
  EXPECT_EQ(recorder.evicted(), 2u);
  const std::vector<obs::FlightEvent> lane = recorder.channel_events(0);
  ASSERT_EQ(lane.size(), 3u);
  EXPECT_EQ(lane.front().detail, "2");  // 0 and 1 evicted
  EXPECT_EQ(lane.back().detail, "4");
  EXPECT_EQ(recorder.channel_events(1).size(), 1u);
  EXPECT_TRUE(recorder.channel_events(7).empty());
}

TEST(FlightRecorder, RecordFailureDumpsToConfiguredPath) {
  const std::string path = ::testing::TempDir() + "bmp_fr_dump.json";
  std::remove(path.c_str());
  obs::FlightRecorderConfig config;
  config.dump_path = path;
  obs::FlightRecorder recorder(config);
  recorder.record(1.0, 0, "control", "demote node=3");
  EXPECT_TRUE(recorder.record_failure(2.0, 0, "Runtime::validate",
                                      {"node 3 oversubscribed"}));
  EXPECT_EQ(recorder.dumps(), 1);
  const std::string dumped = slurp(path);
  EXPECT_NE(dumped.find("\"failure\""), std::string::npos);
  EXPECT_NE(dumped.find("node 3 oversubscribed"), std::string::npos);
  EXPECT_NE(dumped.find("demote node=3"), std::string::npos);
  EXPECT_EQ(dumped, recorder.to_json());
  std::remove(path.c_str());
}

TEST(FlightRecorder, ExecutionValidateFailureAutoRecords) {
  // A busy pipe holds its rate; shrinking the sender's budget under it
  // makes validate() trip, which must auto-record into the recorder.
  obs::FlightRecorder recorder;
  dataplane::ExecutionConfig config;
  config.chunk_size = 1.0;
  config.total_chunks = 50;
  config.emission_rate = 0.0;  // file mode: backlog exists at t = 0
  config.warmup_chunks = 0;
  config.trace_id = 42;
  obs::Hooks hooks;
  hooks.recorder = &recorder;
  dataplane::Execution exec(config, hooks);
  const int source = exec.add_node(10.0);
  const int leaf = exec.add_node(0.0);
  exec.set_edge(source, leaf, 10.0);
  exec.run_until(0.05);  // mid-transmission: the pipe is busy at rate 10
  EXPECT_TRUE(exec.validate().empty());
  exec.set_node_budget(source, 1.0);
  const std::vector<std::string> violations = exec.validate();
  ASSERT_FALSE(violations.empty());
  const std::vector<obs::FlightEvent> lane = recorder.channel_events(42);
  ASSERT_FALSE(lane.empty());
  EXPECT_EQ(lane.back().kind, "failure");
  EXPECT_NE(lane.back().detail.find("Execution::validate"),
            std::string::npos);
}

// ------------------------------------------------------ metrics edge cases

TEST(Metrics, QuantilesCoverTheWholeSeries) {
  // Every exported statistic describes one distribution: the lifetime
  // one. A window-only quantile (the last 1024 of 1..4000) would put the
  // median at 3488.
  obs::ShardRegistry metrics;
  for (int v = 1; v <= 4000; ++v) metrics.observe("latency", v);
  const obs::Sketch* sketch = metrics.sketch("latency");
  ASSERT_NE(sketch, nullptr);
  const double alpha = sketch->config().alpha;
  EXPECT_EQ(sketch->count(), 4000u);
  EXPECT_LE(std::fabs(sketch->quantile(0.5) - 2000.0), alpha * 2000.0);
  EXPECT_LE(std::fabs(sketch->quantile(0.99) - 3960.0), alpha * 3960.0);
  const double exact_sum = 4000.0 * 4001.0 / 2.0;
  EXPECT_LE(std::fabs(sketch->sum() - exact_sum), alpha * exact_sum);
  EXPECT_EQ(sketch->min(), 1.0);
  EXPECT_EQ(sketch->max(), 4000.0);
}

TEST(Metrics, EraseLiveSketchThenReobserveStartsFresh) {
  obs::ShardRegistry metrics;
  metrics.observe("hist.x", 100.0);
  metrics.erase("hist.x");
  EXPECT_EQ(metrics.sketch("hist.x"), nullptr);
  metrics.observe("hist.x", 1.0);
  ASSERT_NE(metrics.sketch("hist.x"), nullptr);
  EXPECT_EQ(metrics.sketch("hist.x")->count(), 1u);
  EXPECT_DOUBLE_EQ(metrics.sketch("hist.x")->max(), 1.0);
}

TEST(Metrics, ExportByteIdenticalAcrossPlannerThreadCounts) {
  // The exporters sit downstream of the registry's determinism contract;
  // drive a planner batch at different thread counts and require the
  // Prometheus and JSON forms (not just the snapshot) to match bytewise.
  util::Xoshiro256 rng(29);
  std::vector<engine::PlanRequest> stream;
  for (int r = 0; r < 10; ++r) {
    util::Xoshiro256 fork = rng.fork(static_cast<std::uint64_t>(r % 5));
    stream.push_back(engine::PlanRequest{
        testing::random_instance(fork, 9, 3), engine::Algorithm::kAuto, 0});
  }
  std::vector<std::string> exports;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    engine::PlannerConfig config;
    config.threads = threads;
    engine::Planner planner(config);
    const std::vector<engine::PlanResponse> responses =
        planner.plan_batch(stream);
    obs::ShardRegistry metrics;
    for (const engine::PlanResponse& response : responses) {
      metrics.inc(response.cache_hit ? "plan.hits" : "plan.misses");
      metrics.observe("plan.throughput", response.throughput);
    }
    exports.push_back(obs::to_prometheus(metrics.snapshot()) + "\n---\n" +
                      obs::to_json(metrics.snapshot()));
  }
  EXPECT_EQ(exports[0], exports[1]);
}

}  // namespace
}  // namespace bmp
