// Mergeable distribution sketches for telemetry at scale.
//
// `Sketch` is a deterministic fixed-boundary log-bucket histogram in the
// DDSketch family: values land in buckets with exponentially growing
// boundaries gamma^i where gamma = (1 + alpha) / (1 - alpha), so any
// quantile read back from the sketch is within a *relative* error of
// alpha of the true order statistic (contract spelled out on quantile()).
// A sketch stores only bucket counters — O(log_gamma(max/min)) integers
// per series regardless of how many observations flowed through it —
// recording is O(1) (amortized), and two sketches merge *losslessly* by
// adding bucket counts. Integer bucket addition is commutative and
// associative, so a fleet of per-shard sketches rolls up to a
// byte-identical global sketch no matter the merge order or grouping —
// the property the sharded-runtime rollup (obs/rollup.hpp) is built on.
//
// `TopK` is the companion heavy-hitter tracker (space-saving algorithm):
// bounded-memory "worst offenders" (nodes by retransmits, edges by
// stalls, ...) without a per-entity series. Recording is the classic
// stream algorithm (deterministic min-eviction with lexicographic
// tie-break); merging takes the exact union of the summaries (counts and
// error bounds add), which again is commutative/associative, and
// truncation to K happens only at query time under a total order — so the
// merged top table is also independent of shard merge order.
//
// Everything here is single-threaded by design (one instance per shard /
// event loop), like the obs::ShardRegistry that holds them.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace bmp::obs {

struct SketchConfig {
  /// Relative-accuracy target: quantile(q) is within alpha of the true
  /// value, relatively. alpha = 0.01 needs ~log(1e12)/log(1.0202) ≈ 1400
  /// buckets to span twelve decades — a few KB per series, worst case.
  double alpha = 0.01;
  /// Values in [0, min_value) collapse into the zero bucket (reported as
  /// 0.0). Keeps the bucket range finite for denormal-ish inputs.
  double min_value = 1e-9;

  /// alpha in (0, 1), min_value positive and finite, and the bucket range
  /// from min_value to DBL_MAX no wider than Sketch::kMaxBuckets — so any
  /// two sketches of one config merge in bounded memory.
  [[nodiscard]] bool valid() const;
};

/// Log-bucket histogram sketch with exact, order-independent merge.
class Sketch {
 public:
  /// Widest bucket index range a valid config may span (alpha = 0.01
  /// spans ~36k, alpha = 1e-4 ~3.6M).
  static constexpr double kMaxBuckets = 1 << 22;

  /// Throws std::invalid_argument unless config.valid().
  explicit Sketch(SketchConfig config = {});

  /// O(1) amortized. Throws on negative or non-finite values (telemetry
  /// here is latencies / ratios / counts — all non-negative by
  /// construction; a negative value is a caller bug worth failing loud).
  void record(double value);
  /// Adds `weight` observations of `value` in one step.
  void record(double value, std::uint64_t weight);

  /// Exact lossless merge: bucket counts add, min/max combine. The result
  /// equals the sketch of the concatenated observation streams, so merge
  /// is commutative and associative (integer addition), and any merge
  /// tree over the same shard set produces a byte-identical sketch.
  /// Throws if the configs (alpha / min_value) differ.
  void merge(const Sketch& other);

  [[nodiscard]] std::uint64_t count() const { return zero_count_ + bucket_total_; }
  [[nodiscard]] std::uint64_t zero_count() const { return zero_count_; }
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  /// Approximate sum, reconstructed from bucket representatives at read
  /// time (not accumulated at record time): each observation contributes
  /// its bucket's midpoint, so the total carries the same relative-error
  /// bound alpha — and, crucially, is a pure function of the (exactly
  /// merged) bucket counts, keeping exports byte-identical across merge
  /// orders where a floating-point running sum would not be.
  [[nodiscard]] double sum() const;
  [[nodiscard]] double mean() const;

  /// Relative-error contract: for q in [0, 1], returns a value v with
  ///   |v - x_q| <= alpha * x_q
  /// where x_q is the nearest-rank q-quantile of everything recorded
  /// (values under min_value read back as 0.0). The bucket representative
  /// is clamped to [min(), max()] — x_q lies in that range, so the clamp
  /// never adds error, and min <= p50 <= p90 <= p99 <= max always holds.
  /// Returns 0.0 when empty.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] const SketchConfig& config() const { return config_; }
  [[nodiscard]] double gamma() const { return gamma_; }

  /// Dense bucket store: counts()[k] observations fell in bucket index
  /// `bucket_offset() + k`, i.e. in (gamma^(i-1), gamma^i] for
  /// i = bucket_offset() + k. Exposed for exporters and serialization.
  [[nodiscard]] std::int32_t bucket_offset() const { return offset_; }
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const {
    return counts_;
  }
  /// Upper boundary gamma^i of bucket index i.
  [[nodiscard]] double bucket_upper(std::int32_t index) const;
  /// Representative value 2*gamma^i/(gamma+1) of bucket index i — the
  /// point minimizing worst-case relative error over the bucket.
  [[nodiscard]] double bucket_value(std::int32_t index) const;

  void clear();

  /// Deserialization hook (parse_rollup_json): installs a dumped bucket
  /// store verbatim — exact by construction, so a dump -> load -> dump
  /// cycle is byte-identical. Returns false (sketch unchanged) when the
  /// dump cannot come from this config: bucket indices outside the range
  /// [min_value, DBL_MAX] maps to, a count total that overflows, or min /
  /// max negative, non-finite or out of order.
  [[nodiscard]] bool restore(std::int64_t offset,
                             std::vector<std::uint64_t> counts,
                             std::uint64_t zero_count, double min, double max);

 private:
  [[nodiscard]] std::int32_t index_of(double value) const;

  SketchConfig config_;
  double gamma_ = 0.0;
  double inv_log_gamma_ = 0.0;
  /// Last bucketed value -> index memo. Telemetry streams repeat values
  /// heavily (a rate-paced pipe delivers identical transfer times), and an
  /// equal double maps to an equal bucket by construction, so the memo
  /// skips the log() without touching the mapping contract.
  double memo_value_ = -1.0;
  std::int32_t memo_index_ = 0;
  std::uint64_t zero_count_ = 0;
  std::uint64_t bucket_total_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  /// Dense contiguous counters; counts_[k] belongs to bucket offset_ + k.
  /// Grows at either end as the observed range widens.
  std::int32_t offset_ = 0;
  std::vector<std::uint64_t> counts_;
};

/// One heavy-hitter row: `count` overestimates the key's true weight by at
/// most `error` (space-saving invariant: true <= count, count - error <=
/// true).
struct TopKEntry {
  std::string key;
  std::uint64_t count = 0;
  std::uint64_t error = 0;
};

/// Space-saving heavy hitters with order-independent merge.
class TopK {
 public:
  explicit TopK(std::size_t capacity = 16);

  /// Streams `weight` onto `key`. Bounded memory: at most `capacity`
  /// tracked keys; when full, the minimum-count entry (ties broken by
  /// lexicographically smallest key, so the eviction victim is a pure
  /// function of the summary) is recycled and its count becomes the new
  /// key's error bound.
  void offer(std::string_view key, std::uint64_t weight = 1);

  /// Union-merge: shared keys add counts and error bounds, disjoint keys
  /// concatenate. Deliberately does NOT truncate back to `capacity`: a
  /// merge of S shard summaries holds at most S * capacity entries
  /// (bounded by shards, not by population), and deferring truncation to
  /// top() is what makes the merge exactly commutative and associative —
  /// so the global heavy-hitter table is byte-identical for every shard
  /// merge order.
  void merge(const TopK& other);

  /// The K heaviest entries under the total order (count desc, error asc,
  /// key asc) — deterministic even among ties. `k == 0` uses capacity().
  [[nodiscard]] std::vector<TopKEntry> top(std::size_t k = 0) const;

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t tracked() const { return entries_.size(); }
  /// Total weight streamed into (or merged into) this summary.
  [[nodiscard]] std::uint64_t total_weight() const { return total_; }

  void clear();

  /// Deserialization hooks (parse_rollup_json): re-insert a summary row /
  /// the streamed total verbatim. Like merge(), restore() may carry the
  /// summary past `capacity` — dumps of merged rollups load losslessly.
  void restore(std::string_view key, std::uint64_t count,
               std::uint64_t error) {
    entries_.emplace(std::string(key), Cell{count, error});
  }
  void restore_total(std::uint64_t total) { total_ = total; }

 private:
  struct Cell {
    std::uint64_t count = 0;
    std::uint64_t error = 0;
  };
  std::size_t capacity_;
  std::uint64_t total_ = 0;
  /// Ordered map: deterministic iteration for eviction tie-breaks and
  /// serialization. Size <= capacity_ while streaming; may exceed it after
  /// merges (see merge()).
  std::map<std::string, Cell, std::less<>> entries_;
};

}  // namespace bmp::obs
