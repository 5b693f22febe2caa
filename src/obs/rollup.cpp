#include "bmp/obs/rollup.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "bmp/obs/json.hpp"

namespace bmp::obs {

namespace {

bool label_ok(std::string_view text) {
  if (text.empty()) return false;
  for (const char c : text) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\' || u < 0x20 || u == 0x7f) return false;
  }
  return true;
}

}  // namespace

void check_label(std::string_view text, const char* what) {
  if (!label_ok(text)) {
    throw std::invalid_argument(
        std::string(what) +
        ": empty, or contains '\"', '\\' or a control character");
  }
}

const char* to_string(GaugeReduction reduction) {
  switch (reduction) {
    case GaugeReduction::kSum: return "sum";
    case GaugeReduction::kMin: return "min";
    case GaugeReduction::kMax: return "max";
  }
  return "?";
}

void RollupSnapshot::merge(const RollupSnapshot& other) {
  if (other.shards > std::numeric_limits<int>::max() - shards) {
    throw std::invalid_argument("RollupSnapshot::merge: shard count overflow");
  }
  shards += other.shards;
  for (const auto& [name, value] : other.counters) {
    counters[name] += value;
  }
  for (const auto& [name, cell] : other.gauges) {
    const auto it = gauges.find(name);
    if (it == gauges.end()) {
      gauges.emplace(name, cell);
      continue;
    }
    if (it->second.reduction != cell.reduction) {
      throw std::invalid_argument("RollupSnapshot::merge: gauge '" + name +
                                  "' reduction mismatch");
    }
    switch (cell.reduction) {
      case GaugeReduction::kSum: it->second.value += cell.value; break;
      case GaugeReduction::kMin:
        it->second.value = std::min(it->second.value, cell.value);
        break;
      case GaugeReduction::kMax:
        it->second.value = std::max(it->second.value, cell.value);
        break;
    }
  }
  for (const auto& [name, sketch] : other.sketches) {
    const auto it = sketches.find(name);
    if (it == sketches.end()) {
      sketches.emplace(name, sketch);
    } else {
      it->second.merge(sketch);
    }
  }
  for (const auto& [name, topk] : other.topks) {
    const auto it = topks.find(name);
    if (it == topks.end()) {
      topks.emplace(name, topk);
    } else {
      if (it->second.capacity() != topk.capacity()) {
        throw std::invalid_argument("RollupSnapshot::merge: topk '" + name +
                                    "' capacity mismatch");
      }
      it->second.merge(topk);
    }
  }
}

std::string RollupSnapshot::to_string(bool include_timing) const {
  const auto hidden = [&](const std::string& name) {
    return !include_timing && is_timing(name);
  };
  std::ostringstream out;
  out.precision(12);
  out << "rollup shards=" << shards << "\n";
  for (const auto& [name, value] : counters) {
    if (hidden(name)) continue;
    out << "counter " << name << " " << value << "\n";
  }
  for (const auto& [name, cell] : gauges) {
    if (hidden(name)) continue;
    out << "gauge " << name << " " << cell.value << " ("
        << obs::to_string(cell.reduction) << ")\n";
  }
  for (const auto& [name, sketch] : sketches) {
    if (hidden(name)) continue;
    out << "sketch " << name << " count=" << sketch.count()
        << " sum=" << sketch.sum() << " min=" << sketch.min()
        << " max=" << sketch.max() << " p50=" << sketch.quantile(0.50)
        << " p90=" << sketch.quantile(0.90)
        << " p99=" << sketch.quantile(0.99)
        << " (alpha=" << sketch.config().alpha << ")\n";
  }
  for (const auto& [name, topk] : topks) {
    if (hidden(name)) continue;
    out << "topk " << name << " total=" << topk.total_weight() << "\n";
    for (const TopKEntry& row : topk.top()) {
      out << "  " << row.key << " count=" << row.count
          << " (overcount<=" << row.error << ")\n";
    }
  }
  return out.str();
}

std::string RollupSnapshot::to_json() const {
  // Series names and heavy-hitter keys passed check_label() on the way
  // in (no quotes, backslashes or control characters), so they render
  // verbatim — same convention as obs::to_json and lineage dumps.
  std::string out = "{\"rollup_schema\":1,\"shards\":" +
                    std::to_string(shards) + ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":" + std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, cell] : gauges) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":{\"red\":\"" +
           std::string(obs::to_string(cell.reduction)) + "\",\"value\":" +
           render_exact(cell.value) + "}";
  }
  out += "},\"sketches\":{";
  first = true;
  for (const auto& [name, sketch] : sketches) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":{\"alpha\":" +
           render_exact(sketch.config().alpha) + ",\"min_value\":" +
           render_exact(sketch.config().min_value) + ",\"zero\":" +
           std::to_string(sketch.zero_count()) + ",\"min\":" +
           render_exact(sketch.min()) + ",\"max\":" +
           render_exact(sketch.max()) + ",\"offset\":" +
           std::to_string(sketch.bucket_offset()) + ",\"counts\":[";
    bool first_count = true;
    for (const std::uint64_t count : sketch.counts()) {
      if (!first_count) out += ",";
      first_count = false;
      out += std::to_string(count);
    }
    out += "]}";
  }
  out += "},\"topk\":{";
  first = true;
  for (const auto& [name, topk] : topks) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":{\"capacity\":" +
           std::to_string(topk.capacity()) + ",\"total\":" +
           std::to_string(topk.total_weight()) + ",\"entries\":[";
    bool first_row = true;
    // top(tracked()) = every retained entry, in the deterministic export
    // order — the dump is the full summary, not a K-truncation, so
    // offline merges of dumped shards stay exact.
    for (const TopKEntry& row : topk.top(std::max<std::size_t>(
             topk.tracked(), 1))) {
      if (!first_row) out += ",";
      first_row = false;
      out += "[\"" + row.key + "\"," + std::to_string(row.count) + "," +
             std::to_string(row.error) + "]";
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

bool RollupSnapshot::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << to_json() << "\n";
  return static_cast<bool>(out);
}

namespace {

/// Minimal cursor parser for the fixed-shape JSON to_json() emits (keys
/// in emission order, strings without escapes) — the same philosophy as
/// parse_lineage_json: we only ever load our own dumps. Every reader
/// rejects what to_json() cannot emit (signs on unsigned fields, overflow,
/// non-finite numbers, labels check_label() refuses).
struct Cursor {
  const char* p;
  const char* end;

  void ws() {
    while (p < end && (*p == ' ' || *p == '\n' || *p == '\t' || *p == '\r')) {
      ++p;
    }
  }
  bool lit(const char* text) {
    ws();
    const std::size_t n = std::strlen(text);
    if (static_cast<std::size_t>(end - p) < n ||
        std::strncmp(p, text, n) != 0) {
      return false;
    }
    p += n;
    return true;
  }
  bool str(std::string& out) {
    ws();
    if (p >= end || *p != '"') return false;
    const char* start = ++p;
    while (p < end && *p != '"') ++p;
    if (p >= end) return false;
    out.assign(start, p);
    ++p;
    return label_ok(out);
  }
  bool u64(std::uint64_t& out) {
    ws();
    if (p >= end || *p < '0' || *p > '9') return false;
    char* next = nullptr;
    errno = 0;
    out = std::strtoull(p, &next, 10);
    if (next == p || errno == ERANGE) return false;
    p = next;
    return true;
  }
  bool i64(long long& out) {
    ws();
    char* next = nullptr;
    errno = 0;
    out = std::strtoll(p, &next, 10);
    if (next == p || errno == ERANGE) return false;
    p = next;
    return true;
  }
  bool num(double& out) {
    ws();
    char* next = nullptr;
    out = std::strtod(p, &next);
    if (next == p || !std::isfinite(out)) return false;
    p = next;
    return true;
  }
};

bool parse_gauge_reduction(const std::string& text, GaugeReduction& out) {
  if (text == "sum") { out = GaugeReduction::kSum; return true; }
  if (text == "min") { out = GaugeReduction::kMin; return true; }
  if (text == "max") { out = GaugeReduction::kMax; return true; }
  return false;
}

bool parse_sections(Cursor& c, RollupSnapshot& out) {
  if (!c.lit("{\"rollup_schema\":1,\"shards\":")) return false;
  long long shards = 0;
  if (!c.i64(shards) || shards < 0 ||
      shards > std::numeric_limits<int>::max()) {
    return false;
  }
  out.shards = static_cast<int>(shards);
  if (!c.lit(",\"counters\":{")) return false;
  while (!c.lit("}")) {
    if (!out.counters.empty() && !c.lit(",")) return false;
    std::string name;
    std::uint64_t value = 0;
    if (!c.str(name) || !c.lit(":") || !c.u64(value)) return false;
    out.counters.emplace(std::move(name), value);
  }
  if (!c.lit(",\"gauges\":{")) return false;
  while (!c.lit("}")) {
    if (!out.gauges.empty() && !c.lit(",")) return false;
    std::string name;
    std::string red;
    RollupSnapshot::GaugeCell cell;
    if (!c.str(name) || !c.lit(":{\"red\":") || !c.str(red) ||
        !parse_gauge_reduction(red, cell.reduction) ||
        !c.lit(",\"value\":") || !c.num(cell.value) || !c.lit("}")) {
      return false;
    }
    out.gauges.emplace(std::move(name), cell);
  }
  if (!c.lit(",\"sketches\":{")) return false;
  while (!c.lit("}")) {
    if (!out.sketches.empty() && !c.lit(",")) return false;
    std::string name;
    SketchConfig config;
    std::uint64_t zero = 0;
    double min = 0.0;
    double max = 0.0;
    long long offset = 0;
    if (!c.str(name) || !c.lit(":{\"alpha\":") || !c.num(config.alpha) ||
        !c.lit(",\"min_value\":") || !c.num(config.min_value) ||
        !config.valid() || !c.lit(",\"zero\":") || !c.u64(zero) ||
        !c.lit(",\"min\":") || !c.num(min) || !c.lit(",\"max\":") ||
        !c.num(max) || !c.lit(",\"offset\":") || !c.i64(offset) ||
        !c.lit(",\"counts\":[")) {
      return false;
    }
    std::vector<std::uint64_t> counts;
    while (!c.lit("]")) {
      if (!counts.empty() && !c.lit(",")) return false;
      std::uint64_t count = 0;
      if (!c.u64(count)) return false;
      counts.push_back(count);
    }
    if (!c.lit("}")) return false;
    Sketch sketch(config);
    if (!sketch.restore(offset, std::move(counts), zero, min, max)) {
      return false;
    }
    out.sketches.emplace(std::move(name), std::move(sketch));
  }
  if (!c.lit(",\"topk\":{")) return false;
  while (!c.lit("}")) {
    if (!out.topks.empty() && !c.lit(",")) return false;
    std::string name;
    std::uint64_t capacity = 0;
    std::uint64_t total = 0;
    if (!c.str(name) || !c.lit(":{\"capacity\":") || !c.u64(capacity) ||
        capacity == 0 || !c.lit(",\"total\":") || !c.u64(total) ||
        !c.lit(",\"entries\":[")) {
      return false;
    }
    TopK topk(capacity);
    bool first = true;
    while (!c.lit("]")) {
      if (!first && !c.lit(",")) return false;
      first = false;
      std::string key;
      std::uint64_t count = 0;
      std::uint64_t error = 0;
      if (!c.lit("[") || !c.str(key) || !c.lit(",") || !c.u64(count) ||
          !c.lit(",") || !c.u64(error) || !c.lit("]") || error > count) {
        return false;
      }
      topk.restore(key, count, error);
    }
    if (!c.lit("}")) return false;
    topk.restore_total(total);
    out.topks.emplace(std::move(name), std::move(topk));
  }
  if (!c.lit("}")) return false;
  c.ws();
  return c.p == c.end;
}

}  // namespace

bool parse_rollup_json(const std::string& text, RollupSnapshot& out) {
  out = RollupSnapshot{};
  Cursor c{text.data(), text.data() + text.size()};
  if (!parse_sections(c, out)) return false;
  // Canonical form only: whatever the field readers let through (leading
  // zeros, non-%.17g doubles, duplicate or unsorted keys, fields that
  // disagree with each other) fails the byte comparison with the re-dump.
  const auto is_space = [](char ch) {
    return ch == ' ' || ch == '\n' || ch == '\t' || ch == '\r';
  };
  std::size_t first = 0;
  std::size_t last = text.size();
  while (first < last && is_space(text[first])) ++first;
  while (last > first && is_space(text[last - 1])) --last;
  return out.to_json().compare(0, std::string::npos, text, first,
                               last - first) == 0;
}

RollupSnapshot rollup(const std::vector<RollupSnapshot>& shards) {
  RollupSnapshot global;
  global.shards = 0;
  for (const RollupSnapshot& shard : shards) global.merge(shard);
  return global;
}

namespace {

/// Stores `value` at `slot`: a fresh slot extends the array by one, a
/// reused (erased) slot is overwritten.
template <typename T>
void put(std::vector<T>& cells, std::size_t slot, T value) {
  if (slot == cells.size()) {
    cells.push_back(std::move(value));
  } else {
    cells[slot] = std::move(value);
  }
}

}  // namespace

std::size_t ShardRegistry::claim(std::string_view name, Names& names) {
  check_label(name, "ShardRegistry: series name");
  std::size_t slot = names.names.size();
  if (names.free.empty()) {
    names.names.emplace_back(name);
  } else {
    slot = names.free.back();
    names.free.pop_back();
    names.names[slot] = std::string(name);
  }
  names.index.emplace(std::string(name), slot);
  return slot;
}

const std::size_t* ShardRegistry::find(std::string_view name,
                                       const Names& names) {
  const auto it = names.index.find(name);
  return it == names.index.end() ? nullptr : &it->second;
}

ShardRegistry::CounterHandle ShardRegistry::counter_handle(
    std::string_view name) {
  if (const std::size_t* slot = find(name, counters_)) return {*slot};
  const std::size_t slot = claim(name, counters_);
  put<std::uint64_t>(counter_values_, slot, 0);
  return {slot};
}

ShardRegistry::GaugeHandle ShardRegistry::gauge_handle(
    std::string_view name, GaugeReduction reduction) {
  if (const std::size_t* slot = find(name, gauges_)) {
    if (gauge_reductions_[*slot] != reduction) {
      throw std::invalid_argument("ShardRegistry::gauge_handle: '" +
                                  std::string(name) + "' reduction mismatch");
    }
    return {*slot};
  }
  const std::size_t slot = claim(name, gauges_);
  put(gauge_values_, slot, 0.0);
  put(gauge_reductions_, slot, reduction);
  return {slot};
}

ShardRegistry::SketchHandle ShardRegistry::sketch_handle(
    std::string_view name, SketchConfig config) {
  if (const std::size_t* slot = find(name, sketches_)) {
    const SketchConfig& have = sketch_values_[*slot].config();
    if (have.alpha != config.alpha || have.min_value != config.min_value) {
      throw std::invalid_argument("ShardRegistry::sketch_handle: '" +
                                  std::string(name) + "' config mismatch");
    }
    return {*slot};
  }
  Sketch fresh(config);  // validates the config before the name is claimed
  const std::size_t slot = claim(name, sketches_);
  put(sketch_values_, slot, std::move(fresh));
  return {slot};
}

ShardRegistry::TopKHandle ShardRegistry::topk_handle(std::string_view name,
                                                     std::size_t capacity) {
  if (const std::size_t* slot = find(name, topks_)) {
    if (topk_values_[*slot].capacity() != capacity) {
      throw std::invalid_argument("ShardRegistry::topk_handle: '" +
                                  std::string(name) + "' capacity mismatch");
    }
    return {*slot};
  }
  TopK fresh(capacity);
  const std::size_t slot = claim(name, topks_);
  put(topk_values_, slot, std::move(fresh));
  return {slot};
}

void ShardRegistry::offer(TopKHandle h, std::string_view key,
                          std::uint64_t weight) {
  check_label(key, "ShardRegistry::offer: top-K key");
  topk_values_[h.index].offer(key, weight);
}

void ShardRegistry::inc(std::string_view name, std::uint64_t delta) {
  inc(counter_handle(name), delta);
}

void ShardRegistry::set_counter(std::string_view name, std::uint64_t value) {
  set_counter(counter_handle(name), value);
}

void ShardRegistry::set(std::string_view name, double value) {
  // Look up first: an existing gauge keeps whatever reduction it was
  // registered with.
  const std::size_t* slot = find(name, gauges_);
  set(slot != nullptr ? GaugeHandle{*slot} : gauge_handle(name), value);
}

void ShardRegistry::observe(std::string_view name, double value) {
  const std::size_t* slot = find(name, sketches_);
  observe(slot != nullptr ? SketchHandle{*slot} : sketch_handle(name), value);
}

std::optional<std::size_t> ShardRegistry::release(std::string_view name,
                                                  Names& names) {
  const auto it = names.index.find(name);
  if (it == names.index.end()) return std::nullopt;
  const std::size_t slot = it->second;
  names.index.erase(it);
  names.names[slot] = std::string();
  names.free.push_back(slot);
  return slot;
}

void ShardRegistry::erase(std::string_view name) {
  // Reset the freed cells too, releasing sketch / top-K storage.
  if (const auto slot = release(name, counters_)) counter_values_[*slot] = 0;
  if (const auto slot = release(name, gauges_)) gauge_values_[*slot] = 0.0;
  if (const auto slot = release(name, sketches_)) {
    sketch_values_[*slot] = Sketch(sketch_values_[*slot].config());
  }
  if (const auto slot = release(name, topks_)) {
    topk_values_[*slot] = TopK(topk_values_[*slot].capacity());
  }
}

std::uint64_t ShardRegistry::counter(std::string_view name) const {
  const std::size_t* slot = find(name, counters_);
  return slot == nullptr ? 0 : counter_values_[*slot];
}

double ShardRegistry::gauge(std::string_view name) const {
  const std::size_t* slot = find(name, gauges_);
  return slot == nullptr ? 0.0 : gauge_values_[*slot];
}

const Sketch* ShardRegistry::sketch(std::string_view name) const {
  const std::size_t* slot = find(name, sketches_);
  return slot == nullptr ? nullptr : &sketch_values_[*slot];
}

std::size_t ShardRegistry::memory_bytes() const {
  std::size_t bytes = 0;
  const auto names_bytes = [](const Names& names) {
    std::size_t total = names.names.capacity() * sizeof(std::string) +
                        names.free.capacity() * sizeof(std::size_t);
    for (const std::string& name : names.names) total += name.capacity();
    return total;
  };
  bytes += names_bytes(counters_) + names_bytes(gauges_) +
           names_bytes(sketches_) + names_bytes(topks_);
  bytes += counter_values_.capacity() * sizeof(std::uint64_t);
  bytes += gauge_values_.capacity() * sizeof(double);
  bytes += gauge_reductions_.capacity() * sizeof(GaugeReduction);
  bytes += sketch_values_.capacity() * sizeof(Sketch);
  for (const Sketch& sketch : sketch_values_) {
    bytes += sketch.counts().capacity() * sizeof(std::uint64_t);
  }
  bytes += topk_values_.capacity() * sizeof(TopK);
  for (const TopK& topk : topk_values_) {
    for (const TopKEntry& row : topk.top(topk.tracked())) {
      bytes += row.key.capacity() + 3 * sizeof(std::uint64_t) + 48;
    }
  }
  // Index maps: ~one node (key + pointers) per series.
  bytes += series() * 64;
  return bytes;
}

RollupSnapshot ShardRegistry::snapshot() const {
  RollupSnapshot snap;
  snap.shards = 1;
  // Erased slots carry an empty name and are skipped.
  for (std::size_t k = 0; k < counters_.names.size(); ++k) {
    if (counters_.names[k].empty()) continue;
    snap.counters.emplace(counters_.names[k], counter_values_[k]);
  }
  for (std::size_t k = 0; k < gauges_.names.size(); ++k) {
    if (gauges_.names[k].empty()) continue;
    snap.gauges.emplace(
        gauges_.names[k],
        RollupSnapshot::GaugeCell{gauge_values_[k], gauge_reductions_[k]});
  }
  for (std::size_t k = 0; k < sketches_.names.size(); ++k) {
    if (sketches_.names[k].empty()) continue;
    snap.sketches.emplace(sketches_.names[k], sketch_values_[k]);
  }
  for (std::size_t k = 0; k < topks_.names.size(); ++k) {
    if (topks_.names[k].empty()) continue;
    snap.topks.emplace(topks_.names[k], topk_values_[k]);
  }
  return snap;
}

void ShardRegistry::clear() {
  for (std::uint64_t& value : counter_values_) value = 0;
  for (double& value : gauge_values_) value = 0.0;
  for (Sketch& sketch : sketch_values_) sketch.clear();
  for (TopK& topk : topk_values_) topk.clear();
}

RollupTree::RollupTree(int fanout) : fanout_(fanout) {
  if (fanout_ < 2) {
    throw std::invalid_argument("RollupTree: fanout must be >= 2");
  }
}

void RollupTree::add(RollupSnapshot shard) {
  shards_.push_back(std::move(shard));
}

RollupSnapshot RollupTree::global() const {
  if (shards_.empty()) {
    RollupSnapshot empty;
    empty.shards = 0;
    return empty;
  }
  // Reduce level by level in groups of `fanout_` — the hierarchy a
  // region-of-regions deployment would materialize over the network.
  std::vector<RollupSnapshot> level = shards_;
  while (level.size() > 1) {
    std::vector<RollupSnapshot> next;
    next.reserve((level.size() + static_cast<std::size_t>(fanout_) - 1) /
                 static_cast<std::size_t>(fanout_));
    for (std::size_t base = 0; base < level.size();
         base += static_cast<std::size_t>(fanout_)) {
      RollupSnapshot group = std::move(level[base]);
      const std::size_t stop =
          std::min(level.size(), base + static_cast<std::size_t>(fanout_));
      for (std::size_t k = base + 1; k < stop; ++k) {
        group.merge(level[k]);
      }
      next.push_back(std::move(group));
    }
    level = std::move(next);
  }
  return level.front();
}

}  // namespace bmp::obs
