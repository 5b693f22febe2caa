// The metrics registry and its rollups — the one telemetry core the
// runtime, the benches and the sharded rollup layer all record into.
//
// A ShardRegistry is a per-shard (per event loop) metric registry. Series
// are created on first touch by name (inc / set / observe) or registered
// up front as *interned handles* recorded through an index into a flat
// array — no string compare or map walk on the hot path. Four series
// kinds:
//   counters  monotone u64, merge by summation
//   gauges    double with a *configured reduction* (sum / min / max — the
//             commutative ones; "last write" deliberately doesn't exist
//             here because it has no order-independent merge)
//   sketches  obs::Sketch log-bucket histograms, merged bucket-wise
//   topk      obs::TopK heavy-hitter summaries, merged by exact union
//
// snapshot() freezes a shard into a RollupSnapshot; RollupSnapshot::merge
// folds two snapshots into one. Every merge is exact and commutative/
// associative (integer sums, min/max, bucket sums, summary unions), so a
// RollupTree can reduce S shards in any order, grouping, or parallel
// shape and the global snapshot — and everything rendered from it
// (to_string / to_json / exporters) — is byte-identical. That is the
// contract bench_obs gates and the sharded-runtime design relies on:
// telemetry cost is O(shards * series), never O(nodes * window).
//
// Wall-clock observations (event-loop latency) are nondeterministic; by
// convention they live under the `timing.` prefix (is_timing) and every
// text / JSON / Prometheus form can omit them, giving a deterministic view
// of an otherwise timed run.
//
// Series names and top-K keys render verbatim into JSON and Prometheus
// labels, so the registry rejects any containing '"', '\\' or a control
// character (std::invalid_argument) — at registration and at offer().
//
// Snapshots serialize to a compact JSON (to_json / parse_rollup_json) so
// shards can be rolled up offline: tools/obs_query merges N dumped shard
// snapshots and answers quantile / heavy-hitter queries with no replay.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bmp/obs/sketch.hpp"

namespace bmp::obs {

/// Nondeterministic (wall-clock) series live under this prefix.
inline constexpr std::string_view kTimingPrefix = "timing.";

/// The one place the `timing.*` exclusion convention is spelled out: the
/// text form, the Prometheus/JSON exporters and the tests all call this
/// instead of string-matching the prefix themselves.
[[nodiscard]] constexpr bool is_timing(std::string_view name) {
  return name.substr(0, kTimingPrefix.size()) == kTimingPrefix;
}

/// Throws std::invalid_argument (naming `what`) unless `text` is safe to
/// render verbatim inside a JSON string or Prometheus label: non-empty,
/// no '"', no '\\', no control character. Applies to series names and
/// top-K keys alike.
void check_label(std::string_view text, const char* what);

/// How a gauge folds across shards. Only commutative, associative
/// reductions are offered — a rollup must not depend on merge order.
enum class GaugeReduction { kSum, kMin, kMax };

[[nodiscard]] const char* to_string(GaugeReduction reduction);

/// A frozen shard (or a merge of several): the unit the rollup tree
/// reduces and the obs_query CLI consumes.
struct RollupSnapshot {
  struct GaugeCell {
    double value = 0.0;
    GaugeReduction reduction = GaugeReduction::kMax;
  };

  int shards = 1;  ///< shard snapshots folded into this one
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, GaugeCell> gauges;
  std::map<std::string, Sketch> sketches;
  std::map<std::string, TopK> topks;

  /// Exact fold: counters sum, gauges apply their reduction, sketches
  /// merge bucket-wise, top-K summaries union. Commutative and
  /// associative, so any merge tree over the same shard set yields a
  /// byte-identical snapshot. Throws std::invalid_argument on conflicting
  /// series definitions (same name, different reduction / sketch config /
  /// topk capacity) or a shard count past INT_MAX.
  void merge(const RollupSnapshot& other);

  /// The text form, one series per line, name-sorted within each kind:
  /// counters, gauges (with their reduction), one summary line per sketch
  /// (quantiles and sum under the alpha contract), one table per top-K
  /// series. Deterministic; with `include_timing == false` the `timing.*`
  /// series are omitted — the view replay-identity checks compare.
  [[nodiscard]] std::string to_string(bool include_timing = true) const;

  /// Compact deterministic JSON (one object, fixed key order) — the
  /// format parse_rollup_json() loads back losslessly.
  [[nodiscard]] std::string to_json() const;
  /// Writes to_json() to `path`; returns false on I/O failure.
  bool write(const std::string& path) const;
};

/// Parses a RollupSnapshot::to_json() dump. Returns false — never throws —
/// on malformed input, on any out-of-range field (sketch config, bucket
/// range, counts, min/max, shard count, top-K capacity, names and keys the
/// registry would reject, non-finite gauges) and on anything that is not
/// the canonical dump of what it parsed to, so every accepted text
/// re-dumps byte-identically. `out` is left unspecified on failure.
bool parse_rollup_json(const std::string& text, RollupSnapshot& out);

/// Folds shard snapshots left to right (any order gives the same bytes).
[[nodiscard]] RollupSnapshot rollup(const std::vector<RollupSnapshot>& shards);

/// Per-shard metric registry. Single-threaded by design: one instance per
/// shard event loop; cross-shard aggregation happens on frozen snapshots,
/// never on live registries.
class ShardRegistry {
 public:
  struct CounterHandle { std::size_t index = 0; };
  struct GaugeHandle { std::size_t index = 0; };
  struct SketchHandle { std::size_t index = 0; };
  struct TopKHandle { std::size_t index = 0; };

  /// Registration: idempotent per name (re-registering returns the same
  /// handle; conflicting definitions throw). Register at setup time, then
  /// record through the handle — the hot path is a bounds-unchecked array
  /// index away from the cell. Handles stay valid across later
  /// registrations and across erase() of *other* series; a handle to an
  /// erased series is dead (its slot may be reused), so only intern series
  /// that are never erased.
  CounterHandle counter_handle(std::string_view name);
  GaugeHandle gauge_handle(std::string_view name,
                           GaugeReduction reduction = GaugeReduction::kMax);
  SketchHandle sketch_handle(std::string_view name, SketchConfig config = {});
  TopKHandle topk_handle(std::string_view name, std::size_t capacity = 16);

  void inc(CounterHandle h, std::uint64_t delta = 1) {
    counter_values_[h.index] += delta;
  }
  void set_counter(CounterHandle h, std::uint64_t value) {
    counter_values_[h.index] = value;
  }
  void set(GaugeHandle h, double value) { gauge_values_[h.index] = value; }
  void observe(SketchHandle h, double value) {
    sketch_values_[h.index].record(value);
  }
  /// Throws std::invalid_argument on a key check_label() rejects.
  void offer(TopKHandle h, std::string_view key, std::uint64_t weight = 1);

  /// By-name recording: the series is created on first touch (default
  /// gauge reduction / sketch config) and found by name thereafter.
  void inc(std::string_view name, std::uint64_t delta = 1);
  /// Mirror an externally tracked monotonic count (e.g. broker totals).
  void set_counter(std::string_view name, std::uint64_t value);
  void set(std::string_view name, double value);
  void observe(std::string_view name, double value);
  /// Drops every series called `name` (per-entity gauges of a closed
  /// channel) and frees its slot for reuse; no-op when absent.
  void erase(std::string_view name);

  /// By-name reads: 0 / 0.0 / nullptr when the series does not exist.
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  [[nodiscard]] double gauge(std::string_view name) const;
  [[nodiscard]] const Sketch* sketch(std::string_view name) const;

  [[nodiscard]] std::uint64_t counter_value(CounterHandle h) const {
    return counter_values_[h.index];
  }
  [[nodiscard]] double gauge_value(GaugeHandle h) const {
    return gauge_values_[h.index];
  }
  [[nodiscard]] const Sketch& sketch_value(SketchHandle h) const {
    return sketch_values_[h.index];
  }
  [[nodiscard]] const TopK& topk_value(TopKHandle h) const {
    return topk_values_[h.index];
  }

  /// Live series (erased ones excluded).
  [[nodiscard]] std::size_t series() const {
    return counters_.index.size() + gauges_.index.size() +
           sketches_.index.size() + topks_.index.size();
  }

  /// Approximate heap footprint of the registry's telemetry state — the
  /// number bench_obs audits for the O(shards * series) memory bound.
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Freezes the shard into a mergeable snapshot (single-shard rollup).
  [[nodiscard]] RollupSnapshot snapshot() const;

  /// Zeroes every live series (registrations and handles survive).
  void clear();

 private:
  /// One series kind's names: name -> slot, each slot's name ("" = free)
  /// and the free list erase() feeds and registration drains — so a
  /// registry whose series come and go (per-channel gauges) stays bounded.
  struct Names {
    std::map<std::string, std::size_t, std::less<>> index;
    std::vector<std::string> names;
    std::vector<std::size_t> free;
  };
  [[nodiscard]] static const std::size_t* find(std::string_view name,
                                               const Names& names);
  /// Claims a slot for a new, check_label()-valid name (freed slots
  /// first); the caller stores the slot's value cell.
  static std::size_t claim(std::string_view name, Names& names);
  /// Frees `name`'s slot and returns it; nullopt when absent.
  static std::optional<std::size_t> release(std::string_view name,
                                            Names& names);

  Names counters_;
  Names gauges_;
  Names sketches_;
  Names topks_;
  std::vector<std::uint64_t> counter_values_;
  std::vector<double> gauge_values_;
  std::vector<GaugeReduction> gauge_reductions_;
  std::vector<Sketch> sketch_values_;
  std::vector<TopK> topk_values_;
};

/// Hierarchical reducer: shards fold into groups of `fanout`, groups fold
/// into one global snapshot — the shape a region-of-regions runtime will
/// produce. Because snapshot merge is exact and order-independent, the
/// tree shape is a pure performance choice; global() is byte-identical to
/// a flat left fold (a property the tests assert, not just assume).
class RollupTree {
 public:
  explicit RollupTree(int fanout = 8);

  void add(RollupSnapshot shard);
  [[nodiscard]] std::size_t size() const { return shards_.size(); }

  /// Reduces all added shards. Empty tree yields an empty snapshot with
  /// shards = 0.
  [[nodiscard]] RollupSnapshot global() const;

 private:
  int fanout_;
  std::vector<RollupSnapshot> shards_;
};

}  // namespace bmp::obs
