// perfbench — the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload <plan_mix|stream_chaos>
//             --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the seven end-to-end metrics with tracing off;
// --trace 1 runs the workload untraced and traced on the same inputs,
// checks that both produce identical deterministic outputs, and reports
// the per-layer metrics read off the benchmark's own spans. Human-readable
// lines come first; the last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit status 0 iff every
// correctness check held.
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common.hpp"

namespace {

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <plan_mix|stream_chaos> "
               "--seed <n> --seconds <s> --trace <0|1>\n";
  return 2;
}

std::string json_number(double value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  using bmp::benchutil::arg_value;
  perfbench::Options options;
  options.workload = arg_value(argc, argv, "--workload");
  const std::string seed = arg_value(argc, argv, "--seed");
  const std::string seconds = arg_value(argc, argv, "--seconds");
  const std::string trace = arg_value(argc, argv, "--trace");
  if (options.workload.empty() || seed.empty() || seconds.empty() ||
      trace.empty()) {
    return usage("missing argument");
  }
  char* end = nullptr;
  options.seed = std::strtoull(seed.c_str(), &end, 10);
  if (*end != '\0') return usage("--seed must be a whole number");
  options.seconds = std::strtod(seconds.c_str(), &end);
  if (*end != '\0' || !(options.seconds > 0.0)) {
    return usage("--seconds must be a positive number");
  }
  if (trace != "0" && trace != "1") return usage("--trace must be 0 or 1");
  options.trace = trace == "1";

  perfbench::Result (*run)(const perfbench::Options&) = nullptr;
  if (options.workload == "plan_mix") run = perfbench::run_plan_mix;
  if (options.workload == "stream_chaos") run = perfbench::run_stream_chaos;
  if (run == nullptr) return usage("unknown workload");

  // Host header: commit, cores, compiler and build type, plus the two pool
  // sizes the numbers were taken with. The planner pool is fixed by the
  // benchmark; the process-shared verifier pool behind
  // VerifyOptions::auto_pool follows hardware_concurrency and cannot be
  // set from outside, so it is recorded instead.
  bmp::benchutil::JsonReport header;
  bmp::benchutil::add_header(header, "perfbench");
  header.add_string("workload", options.workload);
  header.add("seed", static_cast<std::uint64_t>(options.seed));
  header.add("seconds", options.seconds);
  header.add("trace", options.trace ? 1 : 0);
  header.add("planner_threads", static_cast<int>(perfbench::kPlannerThreads));
  header.add("verify_pool_threads",
             static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
  std::cout << "host " << header.to_string();

  perfbench::Result result = run(options);
  if (options.trace) {
    // Lay the workload's metrics onto the full per-layer list.
    std::vector<perfbench::Metric> all;
    for (const auto& [name, unit] : perfbench::per_layer_metrics()) {
      all.push_back({name, unit, 0.0});
      for (const perfbench::Metric& metric : result.metrics) {
        if (metric.name == name && metric.unit == unit) all.back().value = metric.value;
      }
    }
    for (const perfbench::Metric& metric : result.metrics) {
      bool listed = false;
      for (const perfbench::Metric& known : all) {
        listed = listed || (known.name == metric.name && known.unit == metric.unit);
      }
      if (!listed) {
        result.notes.push_back("UNLISTED per-layer metric: " + metric.name);
        result.correct = false;
      }
    }
    result.metrics = std::move(all);
  }
  for (const std::string& note : result.notes) std::cout << note << "\n";
  for (const perfbench::Metric& metric : result.metrics) {
    if (!std::isfinite(metric.value)) result.correct = false;
    std::cout << "  " << metric.name << " = " << json_number(metric.value)
              << " " << metric.unit << "\n";
  }
  std::cout << (result.correct ? "[OK] every correctness check held\n"
                               : "[FAIL] a correctness check failed\n");

  std::ostringstream line;
  line << "{\"correct\": " << (result.correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& metric = result.metrics[i];
    line << (i == 0 ? "" : ", ") << "\"" << metric.name << "\": {\"value\": "
         << (std::isfinite(metric.value) ? json_number(metric.value) : "0")
         << ", \"unit\": \"" << metric.unit << "\"}";
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return result.correct ? 0 : 1;
}
