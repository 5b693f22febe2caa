#include "bmp/obs/export.hpp"

#include <cctype>
#include <cstdio>

namespace bmp::obs {

namespace {

std::string render_double(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

std::string sanitize(std::string_view prefix, const std::string& name) {
  std::string out(prefix);
  for (const char c : name) {
    const auto u = static_cast<unsigned char>(c);
    out += (std::isalnum(u) != 0 || c == '_') ? c : '_';
  }
  return out;
}

bool skip(const std::string& name, bool include_timing) {
  return !include_timing && is_timing(name);
}

}  // namespace

std::string to_prometheus(const RollupSnapshot& snap, bool include_timing,
                          std::string_view prefix) {
  std::string out;
  for (const auto& [name, value] : snap.counters) {
    if (skip(name, include_timing)) continue;
    const std::string metric = sanitize(prefix, name) + "_total";
    out += "# TYPE " + metric + " counter\n";
    out += metric + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, cell] : snap.gauges) {
    if (skip(name, include_timing)) continue;
    const std::string metric = sanitize(prefix, name);
    out += "# TYPE " + metric + " gauge\n";
    out += metric + " " + render_double(cell.value) + "\n";
  }
  for (const auto& [name, sketch] : snap.sketches) {
    if (skip(name, include_timing)) continue;
    const std::string metric = sanitize(prefix, name);
    out += "# TYPE " + metric + " summary\n";
    out += metric + "{quantile=\"0.5\"} " +
           render_double(sketch.quantile(0.5)) + "\n";
    out += metric + "{quantile=\"0.9\"} " +
           render_double(sketch.quantile(0.9)) + "\n";
    out += metric + "{quantile=\"0.99\"} " +
           render_double(sketch.quantile(0.99)) + "\n";
    out += metric + "_sum " + render_double(sketch.sum()) + "\n";
    out += metric + "_count " + std::to_string(sketch.count()) + "\n";
    // Native cumulative histogram on the sketch's own log-bucket grid.
    // Distinct `_sketch` family (one name cannot carry two TYPEs); empty
    // buckets are elided — cumulative counts only move at occupied ones.
    const std::string hist = metric + "_sketch";
    out += "# TYPE " + hist + " histogram\n";
    std::uint64_t running = sketch.zero_count();
    if (running > 0) {
      out += hist + "_bucket{le=\"" +
             render_double(sketch.config().min_value) + "\"} " +
             std::to_string(running) + "\n";
    }
    const std::vector<std::uint64_t>& counts = sketch.counts();
    for (std::size_t k = 0; k < counts.size(); ++k) {
      if (counts[k] == 0) continue;
      running += counts[k];
      out += hist + "_bucket{le=\"" +
             render_double(sketch.bucket_upper(
                 sketch.bucket_offset() + static_cast<std::int32_t>(k))) +
             "\"} " + std::to_string(running) + "\n";
    }
    out += hist + "_bucket{le=\"+Inf\"} " + std::to_string(sketch.count()) +
           "\n";
    out += hist + "_sum " + render_double(sketch.sum()) + "\n";
    out += hist + "_count " + std::to_string(sketch.count()) + "\n";
  }
  for (const auto& [name, topk] : snap.topks) {
    if (skip(name, include_timing)) continue;
    const std::string metric = sanitize(prefix, name);
    out += "# TYPE " + metric + " gauge\n";
    for (const TopKEntry& row : topk.top()) {
      out += metric + "{key=\"" + row.key + "\"} " +
             std::to_string(row.count) + "\n";
    }
  }
  return out;
}

std::string to_json(const RollupSnapshot& snap, bool include_timing) {
  std::string out = "{\"shards\":" + std::to_string(snap.shards) +
                    ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    if (skip(name, include_timing)) continue;
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":" + std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, cell] : snap.gauges) {
    if (skip(name, include_timing)) continue;
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":" + render_double(cell.value);
  }
  out += "},\"sketches\":{";
  first = true;
  for (const auto& [name, sketch] : snap.sketches) {
    if (skip(name, include_timing)) continue;
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":{\"count\":" + std::to_string(sketch.count()) +
           ",\"sum\":" + render_double(sketch.sum()) +
           ",\"min\":" + render_double(sketch.min()) +
           ",\"max\":" + render_double(sketch.max()) +
           ",\"mean\":" + render_double(sketch.mean()) +
           ",\"p50\":" + render_double(sketch.quantile(0.50)) +
           ",\"p90\":" + render_double(sketch.quantile(0.90)) +
           ",\"p99\":" + render_double(sketch.quantile(0.99)) +
           ",\"alpha\":" + render_double(sketch.config().alpha) + "}";
  }
  out += "},\"topk\":{";
  first = true;
  for (const auto& [name, topk] : snap.topks) {
    if (skip(name, include_timing)) continue;
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":[";
    bool first_row = true;
    for (const TopKEntry& row : topk.top()) {
      if (!first_row) out += ",";
      first_row = false;
      out += "[\"" + row.key + "\"," + std::to_string(row.count) + "," +
             std::to_string(row.error) + "]";
    }
    out += "]";
  }
  out += "}}";
  return out;
}

}  // namespace bmp::obs
