#include "bmp/obs/sketch.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace bmp::obs {

namespace {

/// ceil(log_gamma(value)) as a double, before any integer cast: bucket i
/// covers (gamma^(i-1), gamma^i]. The tiny relative nudge keeps exact
/// powers of gamma in their own bucket despite log() rounding (determinism
/// across libm is not assumed — only determinism across runs of the same
/// binary, like the rest of the codebase).
double raw_index(double value, double inv_log_gamma) {
  return std::ceil(std::log(value) * inv_log_gamma - 1e-11);
}

double inverse_log_gamma(double alpha) {
  return 1.0 / std::log((1.0 + alpha) / (1.0 - alpha));
}

}  // namespace

bool SketchConfig::valid() const {
  if (!(alpha > 0.0 && alpha < 1.0)) return false;
  if (!(min_value > 0.0 && std::isfinite(min_value))) return false;
  const double inv = inverse_log_gamma(alpha);
  if (!std::isfinite(inv)) return false;  // gamma rounded to 1
  const double lo = raw_index(min_value, inv);
  const double hi = raw_index(std::numeric_limits<double>::max(), inv);
  // Every bucket index also fits an int32 with room to add offsets.
  return hi - lo <= Sketch::kMaxBuckets && lo > -1e9 && hi < 1e9;
}

Sketch::Sketch(SketchConfig config) : config_(config) {
  if (!(config_.alpha > 0.0 && config_.alpha < 1.0)) {
    throw std::invalid_argument("Sketch: alpha must be in (0, 1)");
  }
  if (!config_.valid()) {
    throw std::invalid_argument(
        "Sketch: min_value must be > 0 and span <= kMaxBuckets buckets");
  }
  gamma_ = (1.0 + config_.alpha) / (1.0 - config_.alpha);
  inv_log_gamma_ = inverse_log_gamma(config_.alpha);
}

std::int32_t Sketch::index_of(double value) const {
  return static_cast<std::int32_t>(raw_index(value, inv_log_gamma_));
}

void Sketch::record(double value) { record(value, 1); }

void Sketch::record(double value, std::uint64_t weight) {
  if (!std::isfinite(value) || value < 0.0) {
    throw std::invalid_argument("Sketch::record: non-finite or negative");
  }
  if (weight == 0) return;
  if (count() == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  if (value < config_.min_value) {
    zero_count_ += weight;
    return;
  }
  std::int32_t index;
  if (value == memo_value_) {
    index = memo_index_;
  } else {
    index = index_of(value);
    memo_value_ = value;
    memo_index_ = index;
  }
  if (counts_.empty()) {
    offset_ = index;
    counts_.push_back(weight);
  } else if (index < offset_) {
    counts_.insert(counts_.begin(),
                   static_cast<std::size_t>(offset_ - index), 0);
    offset_ = index;
    counts_.front() += weight;
  } else {
    const auto pos = static_cast<std::size_t>(index - offset_);
    if (pos >= counts_.size()) counts_.resize(pos + 1, 0);
    counts_[pos] += weight;
  }
  bucket_total_ += weight;
}

void Sketch::merge(const Sketch& other) {
  if (other.config_.alpha != config_.alpha ||
      other.config_.min_value != config_.min_value) {
    throw std::invalid_argument("Sketch::merge: config mismatch");
  }
  if (other.count() == 0) return;
  if (count() == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  zero_count_ += other.zero_count_;
  for (std::size_t k = 0; k < other.counts_.size(); ++k) {
    if (other.counts_[k] == 0) continue;
    const std::int32_t index = other.offset_ + static_cast<std::int32_t>(k);
    if (counts_.empty()) {
      offset_ = index;
      counts_.push_back(other.counts_[k]);
    } else if (index < offset_) {
      counts_.insert(counts_.begin(),
                     static_cast<std::size_t>(offset_ - index), 0);
      offset_ = index;
      counts_.front() += other.counts_[k];
    } else {
      const auto pos = static_cast<std::size_t>(index - offset_);
      if (pos >= counts_.size()) counts_.resize(pos + 1, 0);
      counts_[pos] += other.counts_[k];
    }
  }
  bucket_total_ += other.bucket_total_;
}

double Sketch::min() const { return count() == 0 ? 0.0 : min_; }
double Sketch::max() const { return count() == 0 ? 0.0 : max_; }

double Sketch::bucket_upper(std::int32_t index) const {
  return std::pow(gamma_, static_cast<double>(index));
}

double Sketch::bucket_value(std::int32_t index) const {
  return 2.0 * std::pow(gamma_, static_cast<double>(index)) / (gamma_ + 1.0);
}

double Sketch::sum() const {
  // Fixed ascending-index accumulation order: a pure function of the
  // merged bucket counts, so byte-identical across shard merge orders.
  double total = 0.0;
  for (std::size_t k = 0; k < counts_.size(); ++k) {
    if (counts_[k] == 0) continue;
    total += static_cast<double>(counts_[k]) *
             bucket_value(offset_ + static_cast<std::int32_t>(k));
  }
  return total;
}

double Sketch::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Sketch::quantile(double q) const {
  if (!(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument("Sketch::quantile: q in [0, 1]");
  }
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  // Nearest-rank: smallest value whose cumulative fraction >= q.
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (rank <= zero_count_) return std::clamp(0.0, min_, max_);
  std::uint64_t running = zero_count_;
  for (std::size_t k = 0; k < counts_.size(); ++k) {
    running += counts_[k];
    if (running >= rank) {
      return std::clamp(bucket_value(offset_ + static_cast<std::int32_t>(k)),
                        min_, max_);
    }
  }
  return max();  // unreachable when counters are consistent
}

bool Sketch::restore(std::int64_t offset, std::vector<std::uint64_t> counts,
                     std::uint64_t zero_count, double min, double max) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t total = 0;
  for (const std::uint64_t count : counts) {
    if (count > kMax - total) return false;
    total += count;
  }
  if (zero_count > kMax - total) return false;
  if (!counts.empty()) {
    const double first = static_cast<double>(offset);
    const double last = first + static_cast<double>(counts.size() - 1);
    if (first < raw_index(config_.min_value, inv_log_gamma_) ||
        last > raw_index(std::numeric_limits<double>::max(),
                         inv_log_gamma_)) {
      return false;
    }
  }
  if (!(std::isfinite(min) && std::isfinite(max) && min >= 0.0 &&
        min <= max)) {
    return false;
  }
  offset_ = static_cast<std::int32_t>(offset);
  counts_ = std::move(counts);
  zero_count_ = zero_count;
  bucket_total_ = total;
  min_ = min;
  max_ = max;
  return true;
}

void Sketch::clear() {
  zero_count_ = 0;
  bucket_total_ = 0;
  min_ = 0.0;
  max_ = 0.0;
  offset_ = 0;
  counts_.clear();
}

TopK::TopK(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0) {
    throw std::invalid_argument("TopK: capacity must be > 0");
  }
}

void TopK::offer(std::string_view key, std::uint64_t weight) {
  if (weight == 0) return;
  total_ += weight;
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.count += weight;
    return;
  }
  if (entries_.size() < capacity_) {
    entries_.emplace(std::string(key), Cell{weight, 0});
    return;
  }
  // Space-saving eviction: recycle the minimum-count entry. The ordered
  // map makes "first minimum in key order" a deterministic victim.
  auto victim = entries_.begin();
  for (auto cell = entries_.begin(); cell != entries_.end(); ++cell) {
    if (cell->second.count < victim->second.count) victim = cell;
  }
  const Cell evicted = victim->second;
  entries_.erase(victim);
  entries_.emplace(std::string(key),
                   Cell{evicted.count + weight, evicted.count});
}

void TopK::merge(const TopK& other) {
  total_ += other.total_;
  for (const auto& [key, cell] : other.entries_) {
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      entries_.emplace(key, cell);
    } else {
      it->second.count += cell.count;
      it->second.error += cell.error;
    }
  }
}

std::vector<TopKEntry> TopK::top(std::size_t k) const {
  if (k == 0) k = capacity_;
  std::vector<TopKEntry> rows;
  rows.reserve(entries_.size());
  for (const auto& [key, cell] : entries_) {
    rows.push_back({key, cell.count, cell.error});
  }
  std::sort(rows.begin(), rows.end(),
            [](const TopKEntry& a, const TopKEntry& b) {
              if (a.count != b.count) return a.count > b.count;
              if (a.error != b.error) return a.error < b.error;
              return a.key < b.key;
            });
  if (rows.size() > k) rows.resize(k);
  return rows;
}

void TopK::clear() {
  total_ = 0;
  entries_.clear();
}

}  // namespace bmp::obs
