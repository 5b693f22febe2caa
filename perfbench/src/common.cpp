#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

namespace perfbench {

const std::vector<std::pair<const char*, const char*>>& per_layer_metrics() {
  static const std::vector<std::pair<const char*, const char*>> kMetrics = {
      // plan_mix
      {"engine.plan_hit_us", "us"},
      {"engine.plan_miss_us.acyclic", "us"},
      {"engine.plan_miss_us.cyclic", "us"},
      {"engine.cache_hit_ratio", "ratio"},
      {"core.construct_us.acyclic", "us"},
      {"core.construct_us.cyclic", "us"},
      {"flow.verify_us.tier1", "us"},
      {"flow.verify_us.tier2", "us"},
      {"flow.tier2_maxflow_solves", "count/verify"},
      {"flow.bfs_rounds", "count/verify"},
      {"core.claim_gap_max_rel", "ratio"},
      {"engine.miss_overhead_share", "ratio"},
      // stream_chaos
      {"dataplane.advance_us", "us"},
      {"dataplane.ns_per_chunk", "ns"},
      {"dataplane.events_per_chunk", "ratio"},
      {"dataplane.sched_no_chunk_ratio", "ratio"},
      {"dataplane.retransmit_ratio", "ratio"},
      {"dataplane.duplicate_ratio", "ratio"},
      {"dataplane.hol_stalls", "count/episode"},
      {"runtime.handle_us.fault", "us"},
      {"runtime.handle_us.node_leave", "us"},
      {"runtime.handle_us.degrade", "us"},
      {"control.edge_samples", "count/episode"},
      {"control.actions", "count/episode"},
      {"fault.crashes_detected", "count/episode"},
      {"fault.corrupt_accepted", "count"},
      {"obs.overhead_ratio", "ratio"},
      {"obs.lineage_hops_retained", "count"},
      // every workload
      {"bench.tracing_overhead", "ratio"},
      {"bench.attributed_share", "ratio"},
  };
  return kMetrics;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double sorted_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

Tail tail_of(std::vector<double> values) {
  static constexpr double kLadder[] = {0.999, 0.99, 0.95, 0.9, 0.5};
  std::sort(values.begin(), values.end());
  Tail tail;
  const std::size_t n = values.size();
  for (const double q : kLadder) {
    const std::size_t rank =
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    if (rank < 1 || rank > n) continue;
    const std::size_t beyond = n - rank;
    if (beyond < kTailMinBeyond) continue;
    tail.ok = true;
    tail.percentile = 100.0 * q;
    tail.value = values[rank - 1];
    tail.beyond = beyond;
    return tail;
  }
  tail.beyond = n;
  return tail;
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void add_end_to_end(const Load& load, std::size_t quality_episodes,
                    Result& result) {
  const Tail tail = tail_of(load.op_seconds);
  std::ostringstream line;
  line << "latency_tail_ms: p" << tail.percentile << " of "
       << load.op_seconds.size() << " ops, " << tail.beyond
       << " samples beyond it";
  if (!tail.ok) {
    line.str("");
    line << "latency_tail_ms: FLAGGED, " << load.op_seconds.size()
         << " ops leave fewer than " << kTailMinBeyond
         << " samples beyond p50; no tail reported";
    result.correct = false;
  }
  result.notes.push_back(line.str());
  std::vector<double> sorted = load.op_seconds;
  std::sort(sorted.begin(), sorted.end());
  std::ostringstream ladder;
  ladder << "op latency (ms):";
  for (const double q : {0.5, 0.9, 0.95, 0.99, 0.995, 0.999}) {
    ladder << " p" << 100.0 * q << " " << 1e3 * sorted_quantile(sorted, q);
  }
  ladder << ", max " << (sorted.empty() ? 0.0 : 1e3 * sorted.back());
  result.notes.push_back(ladder.str());

  std::vector<double> rates;
  for (std::size_t e = 0; e < load.episode_ops.size(); ++e) {
    if (load.episode_busy[e] > 0.0) {
      rates.push_back(static_cast<double>(load.episode_ops[e]) / load.episode_busy[e]);
    }
  }
  std::ostringstream per_episode;
  per_episode.precision(4);
  per_episode << "episode ops/s:";
  for (const double rate : rates) per_episode << " " << rate;
  result.notes.push_back(per_episode.str());
  const std::size_t quality = std::min(quality_episodes, load.episode_worst.size());
  if (quality < quality_episodes) result.correct = false;
  const std::vector<double> worst(load.episode_worst.begin(),
                                  load.episode_worst.begin() +
                                      static_cast<std::ptrdiff_t>(quality));
  result.metrics.push_back({"setup_s", "s", median(load.setup_seconds)});
  result.metrics.push_back({"ops_per_s", "1/s", median(rates)});
  result.metrics.push_back(
      {"latency_p50_ms", "ms", 1e3 * median(load.op_seconds)});
  result.metrics.push_back({"latency_tail_ms", "ms", 1e3 * tail.value});
  result.metrics.push_back(
      {"success_ratio", "ratio",
       load.attempted == 0 ? 0.0
                           : static_cast<double>(load.succeeded) /
                                 static_cast<double>(load.attempted)});
  result.metrics.push_back({"worst_ratio", "ratio", median(worst)});
  result.metrics.push_back({"peak_rss_mb", "MiB", peak_rss_mb()});
}

void Checks::report(Result& result) const {
  for (const std::string& message : messages) {
    result.notes.push_back("CHECK FAILED: " + message);
  }
  if (failures > 0) result.correct = false;
}

void report_fidelity(bool identical, Result& result) {
  result.notes.push_back(std::string("trace fidelity: ") +
                         (identical ? "traced outputs identical to untraced"
                                    : "MISMATCH between traced and untraced"));
  if (!identical) result.correct = false;
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) out.push_back(span.us());
  }
  return out;
}

double SpanLog::covered_us() const {
  double total = 0.0;
  for (const Span& span : spans_) total += span.us();
  return total;
}

void Digest::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  add(bits);
}

}  // namespace perfbench
