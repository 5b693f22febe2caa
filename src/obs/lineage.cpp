#include "bmp/obs/lineage.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

#include "bmp/obs/json.hpp"
#include "bmp/obs/trace.hpp"

namespace bmp::obs {

// ------------------------------------------------------------ LineageSink

LineageSink::LineageSink(LineageConfig config) : config_(config) {
  if (config_.sample_mod == 0 ||
      (config_.sample_mod & (config_.sample_mod - 1)) != 0) {
    throw std::invalid_argument(
        "LineageSink: sample_mod must be a power of two");
  }
  sample_mod_ = config_.sample_mod;
  raw_.reserve(std::min<std::size_t>(config_.max_hops, 1u << 16));
}

void LineageSink::resample() {
  while (raw_.size() > config_.auto_sample_target &&
         sample_mod_ < (1u << 30)) {
    sample_mod_ *= 2;
    // Re-filter everything already retained under the tightened sample.
    // Walking raw_ in record order keeps the retry sideband aligned and
    // makes the surviving set — and therefore the dump — a pure function
    // of the record sequence.
    std::vector<RawHop> kept_raw;
    kept_raw.reserve(raw_.size() / 2);
    std::vector<RetryData> kept_retries;
    std::size_t retry = 0;
    for (const RawHop& raw : raw_) {
      const bool has_retry = (raw.packed & kRetryBit) != 0;
      const std::size_t retry_index = retry;
      if (has_retry) ++retry;
      if (!sampled(raw.channel, static_cast<int>(raw.packed & kChunkMask))) {
        ++sampled_out_;
        continue;
      }
      kept_raw.push_back(raw);
      if (has_retry) kept_retries.push_back(retries_[retry_index]);
    }
    raw_.swap(kept_raw);
    retries_.swap(kept_retries);
    // Roots of now-unsampled chunks only existed to resolve enqueue times
    // of hops we no longer hold; drop them too so root storage shrinks at
    // the same rate. Channel/chunk come back out of the packed key.
    std::vector<std::pair<std::uint64_t, double>> kept_roots;
    kept_roots.reserve(roots_.size() / 2);
    for (const auto& root : roots_) {
      if (sampled(static_cast<int>(root.first >> 48),
                  static_cast<int>(root.first & 0xFFFFFFu))) {
        kept_roots.push_back(root);
      }
    }
    roots_.swap(kept_roots);
    resolved_ = false;
  }
}

void LineageSink::resolve() const {
  if (resolved_) return;
  resolved_ = true;
  hops_.clear();
  hops_.reserve(raw_.size());
  std::size_t retry = 0;
  for (const RawHop& raw : raw_) {
    HopRecord& hop = hops_.emplace_back();
    hop.chunk = static_cast<int>(raw.packed & kChunkMask);
    hop.from = raw.from;
    hop.to = raw.to;
    hop.channel = raw.channel;
    hop.start = raw.start;
    hop.finish = raw.finish;
    hop.hol_stalled = (raw.packed & kHolBit) != 0;
    hop.overtake = (raw.packed & kOvertakeBit) != 0;
    if ((raw.packed & kRetryBit) != 0) {
      hop.retransmits = retries_[retry].retransmits;
      hop.loss_time = retries_[retry].loss_time;
      ++retry;
    }
  }
  avail_.clear();
  avail_.reserve(roots_.size() + hops_.size());
  // First copy wins: a late duplicate must not rewrite the DAG parent.
  // Roots (emissions, re-seeds, drop-counter overflow) go first; a node's
  // delivery hops never collide with them because the emitting node does
  // not also receive the chunk.
  for (const auto& [root_key, time] : roots_) avail_.emplace(root_key, time);
  for (const HopRecord& hop : hops_) {
    avail_.emplace(key(hop.channel, hop.to, hop.chunk), hop.finish);
  }
  for (HopRecord& hop : hops_) {
    const auto it = avail_.find(key(hop.channel, hop.from, hop.chunk));
    hop.enqueue = it == avail_.end() ? hop.start : it->second;
  }
}

double LineageSink::available_at(int channel, int node, int chunk,
                                 double fallback) const {
  resolve();
  const auto it = avail_.find(key(channel, node, chunk));
  return it == avail_.end() ? fallback : it->second;
}

std::string LineageSink::to_json() const {
  resolve();
  std::string out = "{\"dropped\":" + std::to_string(dropped_) +
                    ",\"sample_mod\":" + std::to_string(sample_mod_) +
                    ",\"sampled_out\":" + std::to_string(sampled_out_) +
                    ",\"hops\":[\n";
  for (std::size_t i = 0; i < hops_.size(); ++i) {
    const HopRecord& hop = hops_[i];
    out += "{\"chunk\":" + std::to_string(hop.chunk) +
           ",\"from\":" + std::to_string(hop.from) +
           ",\"to\":" + std::to_string(hop.to) +
           ",\"channel\":" + std::to_string(hop.channel) +
           ",\"enqueue\":" + render_exact(hop.enqueue) +
           ",\"start\":" + render_exact(hop.start) +
           ",\"finish\":" + render_exact(hop.finish) +
           ",\"retransmits\":" + std::to_string(hop.retransmits) +
           ",\"loss_time\":" + render_exact(hop.loss_time) +
           ",\"hol\":" + std::to_string(hop.hol_stalled ? 1 : 0) +
           ",\"overtake\":" + std::to_string(hop.overtake ? 1 : 0) + "}";
    if (i + 1 < hops_.size()) out += ",";
    out += "\n";
  }
  out += "]}\n";
  return out;
}

bool LineageSink::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << to_json();
  return static_cast<bool>(out);
}

bool parse_lineage_json(const std::string& text, std::vector<HopRecord>& hops,
                        std::uint64_t& dropped, std::uint64_t& sampled_out,
                        std::uint32_t& sample_mod) {
  hops.clear();
  dropped = 0;
  sampled_out = 0;
  sample_mod = 1;
  unsigned long long dropped_ull = 0;
  if (std::sscanf(text.c_str(), "{\"dropped\":%llu", &dropped_ull) != 1) {
    return false;
  }
  dropped = dropped_ull;
  // Sampling fields are optional: dumps written before chunk sampling
  // existed (and hand-built test fixtures) omit them.
  const std::size_t header_end = text.find("\"hops\":[");
  const std::size_t mod_pos = text.find("\"sample_mod\":");
  if (mod_pos != std::string::npos && mod_pos < header_end) {
    unsigned long long mod_ull = 1;
    if (std::sscanf(text.c_str() + mod_pos, "\"sample_mod\":%llu", &mod_ull) !=
            1 ||
        mod_ull == 0 || mod_ull > (1ull << 30)) {
      return false;
    }
    sample_mod = static_cast<std::uint32_t>(mod_ull);
  }
  const std::size_t out_pos = text.find("\"sampled_out\":");
  if (out_pos != std::string::npos && out_pos < header_end) {
    unsigned long long out_ull = 0;
    if (std::sscanf(text.c_str() + out_pos, "\"sampled_out\":%llu",
                    &out_ull) != 1) {
      return false;
    }
    sampled_out = out_ull;
  }
  std::size_t pos = header_end;
  if (pos == std::string::npos) return false;
  pos += 8;
  while (true) {
    const std::size_t line_start = text.find('{', pos);
    const std::size_t array_end = text.find(']', pos);
    if (line_start == std::string::npos || array_end < line_start) break;
    HopRecord hop;
    int hol = 0;
    int overtake = 0;
    const int got = std::sscanf(
        text.c_str() + line_start,
        "{\"chunk\":%d,\"from\":%d,\"to\":%d,\"channel\":%d,"
        "\"enqueue\":%lf,\"start\":%lf,\"finish\":%lf,"
        "\"retransmits\":%d,\"loss_time\":%lf,\"hol\":%d,\"overtake\":%d}",
        &hop.chunk, &hop.from, &hop.to, &hop.channel, &hop.enqueue,
        &hop.start, &hop.finish, &hop.retransmits, &hop.loss_time, &hol,
        &overtake);
    if (got != 11) return false;
    hop.hol_stalled = hol != 0;
    hop.overtake = overtake != 0;
    hops.push_back(hop);
    pos = text.find('\n', line_start);
    if (pos == std::string::npos) break;
  }
  return true;
}

bool parse_lineage_json(const std::string& text, std::vector<HopRecord>& hops,
                        std::uint64_t& dropped) {
  std::uint64_t sampled_out = 0;
  std::uint32_t sample_mod = 1;
  return parse_lineage_json(text, hops, dropped, sampled_out, sample_mod);
}

// -------------------------------------------------- critical-path analysis

namespace {

/// Delay decomposition of one hop. `total = finish - enqueue` splits into
/// the pre-transmission gap (failed attempts first, then HOL stall or
/// ordinary queueing) and the successful transmission itself.
PathSegment decompose(const HopRecord& hop) {
  PathSegment seg;
  seg.chunk = hop.chunk;
  seg.from = hop.from;
  seg.to = hop.to;
  seg.enqueue = hop.enqueue;
  seg.start = hop.start;
  seg.finish = hop.finish;
  seg.overtake = hop.overtake;
  const double total = hop.finish - hop.enqueue;
  const double gap =
      std::clamp(hop.start - hop.enqueue, 0.0, std::max(total, 0.0));
  seg.transmit = total - gap;
  seg.retransmit_loss = std::clamp(hop.loss_time, 0.0, gap);
  const double remainder = gap - seg.retransmit_loss;
  if (hop.hol_stalled) {
    seg.sched_stall = remainder;
  } else {
    seg.queue_wait = remainder;
  }
  return seg;
}

void accumulate(BlameRow& row, const PathSegment& seg) {
  const double delay =
      seg.queue_wait + seg.transmit + seg.retransmit_loss + seg.sched_stall;
  row.delay += delay;
  row.queue_wait += seg.queue_wait;
  row.transmit += seg.transmit;
  row.retransmit_loss += seg.retransmit_loss;
  row.sched_stall += seg.sched_stall;
}

std::vector<BlameRow> top_rows(std::map<std::string, BlameRow>& rows,
                               std::size_t top_n) {
  std::vector<BlameRow> out;
  out.reserve(rows.size());
  for (auto& [key, row] : rows) {
    row.key = key;
    out.push_back(row);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const BlameRow& a, const BlameRow& b) {
                     if (a.delay != b.delay) return a.delay > b.delay;
                     return a.key < b.key;
                   });
  if (out.size() > top_n) out.resize(top_n);
  return out;
}

std::string row_json(const BlameRow& row, const char* key_field) {
  return std::string("{\"") + key_field + "\":\"" + row.key +
         "\",\"delay\":" + render_exact(row.delay) +
         ",\"queue_wait\":" + render_exact(row.queue_wait) +
         ",\"transmit\":" + render_exact(row.transmit) +
         ",\"retransmit_loss\":" + render_exact(row.retransmit_loss) +
         ",\"sched_stall\":" + render_exact(row.sched_stall) + "}";
}

}  // namespace

BlameTable analyze_critical_path(const std::vector<HopRecord>& hops,
                                 int channel, std::size_t top_n,
                                 std::uint32_t sample_mod) {
  BlameTable table;
  table.sample_mod = sample_mod;
  // The last-completing node: the receiver of the hop with the latest
  // finish (ties resolve to the latest record — the event loop's order).
  const HopRecord* last = nullptr;
  for (const HopRecord& hop : hops) {
    if (channel >= 0 && hop.channel != channel) continue;
    if (last == nullptr || hop.finish >= last->finish) last = &hop;
  }
  if (last == nullptr) return table;
  table.valid = true;
  table.channel = last->channel;
  table.last_node = last->to;
  table.critical_chunk = last->chunk;
  table.completion_time = last->finish;

  // Parent index for the critical chunk: who delivered it to each node.
  // First delivery wins (a late duplicate is not the DAG parent).
  std::unordered_map<int, const HopRecord*> parent;
  for (const HopRecord& hop : hops) {
    if (hop.channel != table.channel || hop.chunk != table.critical_chunk) {
      continue;
    }
    parent.emplace(hop.to, &hop);
  }
  std::vector<const HopRecord*> chain;
  int node = table.last_node;
  while (true) {
    const auto it = parent.find(node);
    if (it == parent.end()) break;  // reached the emitting node (or a drop)
    chain.push_back(it->second);
    node = it->second->from;
    if (chain.size() > hops.size()) break;  // defensive: malformed input
  }
  std::map<std::string, BlameRow> edge_rows;
  std::map<std::string, BlameRow> node_rows;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    const PathSegment seg = decompose(**it);
    table.path.push_back(seg);
    accumulate(edge_rows[std::to_string(seg.from) + "->" +
                         std::to_string(seg.to)],
               seg);
    accumulate(node_rows[std::to_string(seg.from)], seg);
  }
  table.edges = top_rows(edge_rows, top_n);
  table.nodes = top_rows(node_rows, top_n);

  // The invariant: emit_delay plus the per-segment delays telescopes to the
  // last node's completion time (enqueue_{k+1} == finish_k by construction).
  table.emit_delay = table.path.empty() ? table.completion_time
                                        : table.path.front().enqueue;
  table.attributed_total = table.emit_delay;
  for (const PathSegment& seg : table.path) {
    table.attributed_total += seg.queue_wait + seg.transmit +
                              seg.retransmit_loss + seg.sched_stall;
  }
  return table;
}

std::string BlameTable::to_json() const {
  std::string out = "{\"valid\":" + std::string(valid ? "true" : "false") +
                    ",\"channel\":" + std::to_string(channel) +
                    ",\"last_node\":" + std::to_string(last_node) +
                    ",\"critical_chunk\":" + std::to_string(critical_chunk) +
                    ",\"completion_time\":" + render_exact(completion_time) +
                    ",\"emit_delay\":" + render_exact(emit_delay) +
                    ",\"attributed_total\":" + render_exact(attributed_total) +
                    ",\"sample_mod\":" + std::to_string(sample_mod) +
                    ",\"path\":[";
  for (std::size_t i = 0; i < path.size(); ++i) {
    const PathSegment& seg = path[i];
    if (i != 0) out += ",";
    out += "{\"chunk\":" + std::to_string(seg.chunk) +
           ",\"from\":" + std::to_string(seg.from) +
           ",\"to\":" + std::to_string(seg.to) +
           ",\"enqueue\":" + render_exact(seg.enqueue) +
           ",\"start\":" + render_exact(seg.start) +
           ",\"finish\":" + render_exact(seg.finish) +
           ",\"queue_wait\":" + render_exact(seg.queue_wait) +
           ",\"transmit\":" + render_exact(seg.transmit) +
           ",\"retransmit_loss\":" + render_exact(seg.retransmit_loss) +
           ",\"sched_stall\":" + render_exact(seg.sched_stall) +
           ",\"overtake\":" + std::to_string(seg.overtake ? 1 : 0) + "}";
  }
  out += "],\"edges\":[";
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (i != 0) out += ",";
    out += row_json(edges[i], "edge");
  }
  out += "],\"nodes\":[";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i != 0) out += ",";
    out += row_json(nodes[i], "node");
  }
  out += "]}";
  return out;
}

std::string BlameTable::to_text() const {
  if (!valid) return "lineage: no hops recorded\n";
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "critical path: node %d completed at t=%.6f via chunk %d "
                "(%zu hops, emit delay %.6f)\n",
                last_node, completion_time, critical_chunk, path.size(),
                emit_delay);
  out += buf;
  if (sample_mod > 1) {
    std::snprintf(buf, sizeof(buf),
                  "note: built from a 1-in-%u chunk sample; the true "
                  "critical path may lie on an unsampled chunk\n",
                  sample_mod);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "%-12s %10s %10s %10s %10s %10s\n", "edge",
                "delay", "queue", "transmit", "retx_loss", "hol_stall");
  out += buf;
  for (const BlameRow& row : edges) {
    std::snprintf(buf, sizeof(buf), "%-12s %10.4f %10.4f %10.4f %10.4f %10.4f\n",
                  row.key.c_str(), row.delay, row.queue_wait, row.transmit,
                  row.retransmit_loss, row.sched_stall);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "%-12s %10s %10s %10s %10s %10s\n", "node",
                "delay", "queue", "transmit", "retx_loss", "hol_stall");
  out += buf;
  for (const BlameRow& row : nodes) {
    std::snprintf(buf, sizeof(buf), "%-12s %10.4f %10.4f %10.4f %10.4f %10.4f\n",
                  row.key.c_str(), row.delay, row.queue_wait, row.transmit,
                  row.retransmit_loss, row.sched_stall);
    out += buf;
  }
  return out;
}

void emit_blame_trace(const BlameTable& table, TraceSink* trace) {
  if (trace == nullptr || !table.valid) return;
  for (const PathSegment& seg : table.path) {
    trace->instant_at(Lane::kLineage, "lineage", "segment", seg.finish,
                      {{"chunk", seg.chunk},
                       {"from", seg.from},
                       {"to", seg.to},
                       {"queue_wait", seg.queue_wait},
                       {"transmit", seg.transmit},
                       {"retransmit_loss", seg.retransmit_loss},
                       {"sched_stall", seg.sched_stall}});
  }
  trace->instant_at(Lane::kLineage, "lineage", "blame", table.completion_time,
                    {{"channel", table.channel},
                     {"last_node", table.last_node},
                     {"critical_chunk", table.critical_chunk},
                     {"completion_time", table.completion_time},
                     {"hops", static_cast<int>(table.path.size())}});
}

}  // namespace bmp::obs
