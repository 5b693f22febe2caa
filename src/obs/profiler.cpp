#include "bmp/obs/profiler.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "bmp/obs/json.hpp"

namespace bmp::obs {

void Profiler::enter(std::string_view phase) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = phases_.find(phase);
  if (it == phases_.end()) it = phases_.emplace(std::string(phase), Phase{}).first;
  ++it->second.calls;
}

void Profiler::count(std::string_view phase, std::string_view counter,
                     std::uint64_t delta) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = phases_.find(phase);
  if (it == phases_.end()) it = phases_.emplace(std::string(phase), Phase{}).first;
  auto cit = it->second.counters.find(counter);
  if (cit == it->second.counters.end()) {
    it->second.counters.emplace(std::string(counter), delta);
  } else {
    cit->second += delta;
  }
}

bool Profiler::empty() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return phases_.empty();
}

std::size_t Profiler::phase_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return phases_.size();
}

std::uint64_t Profiler::calls(std::string_view phase) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = phases_.find(phase);
  return it == phases_.end() ? 0 : it->second.calls;
}

std::uint64_t Profiler::counter(std::string_view phase,
                                std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = phases_.find(phase);
  if (it == phases_.end()) return 0;
  const auto cit = it->second.counters.find(name);
  return cit == it->second.counters.end() ? 0 : cit->second;
}

std::uint64_t Profiler::total(std::string_view counter) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t sum = 0;
  for (const auto& [path, phase] : phases_) {
    (void)path;
    const auto cit = phase.counters.find(counter);
    if (cit != phase.counters.end()) sum += cit->second;
  }
  return sum;
}

std::uint64_t Profiler::work_of(const Phase& phase) {
  if (phase.counters.empty()) return phase.calls;
  std::uint64_t sum = 0;
  for (const auto& [name, value] : phase.counters) {
    (void)name;
    sum += value;
  }
  return sum;
}

std::uint64_t Profiler::work(std::string_view phase) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = phases_.find(phase);
  return it == phases_.end() ? 0 : work_of(it->second);
}

std::uint64_t Profiler::total_work() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t sum = 0;
  for (const auto& [path, phase] : phases_) {
    (void)path;
    sum += work_of(phase);
  }
  return sum;
}

namespace {

/// Tree node materialized from the flat path map at export time. Interior
/// segments that were never recorded directly exist with null stats.
struct TreeNode {
  std::uint64_t calls = 0;
  std::uint64_t work = 0;
  bool recorded = false;
  std::string counters_json;  ///< rendered "{...}" (empty = none)
  std::map<std::string, TreeNode> children;
};

void render_tree(const TreeNode& node, std::string& out, int depth) {
  const std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
  out += "{\n";
  out += pad + "  \"calls\": " + std::to_string(node.calls) + ",\n";
  out += pad + "  \"work\": " + std::to_string(node.work) + ",\n";
  out += pad + "  \"counters\": " +
         (node.counters_json.empty() ? "{}" : node.counters_json) + ",\n";
  out += pad + "  \"children\": {";
  bool first = true;
  for (const auto& [name, child] : node.children) {
    out += first ? "\n" : ",\n";
    first = false;
    out += pad + "    \"" + escaped(name) + "\": ";
    render_tree(child, out, depth + 2);
  }
  if (!first) out += "\n" + pad + "  ";
  out += "}\n" + pad + "}";
}

std::string render_counters(
    const std::map<std::string, std::uint64_t, std::less<>>& counters) {
  if (counters.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + escaped(name) + "\": " + std::to_string(value);
  }
  out += "}";
  return out;
}

}  // namespace

std::string Profiler::to_json() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  TreeNode root;
  for (const auto& [path, phase] : phases_) {
    TreeNode* node = &root;
    std::size_t begin = 0;
    while (begin <= path.size()) {
      const std::size_t slash = path.find('/', begin);
      const std::string segment =
          path.substr(begin, slash == std::string::npos ? std::string::npos
                                                        : slash - begin);
      node = &node->children[segment];
      if (slash == std::string::npos) break;
      begin = slash + 1;
    }
    node->recorded = true;
    node->calls = phase.calls;
    node->work = work_of(phase);
    node->counters_json = render_counters(phase.counters);
  }
  std::string out = "{\n  \"schema\": 1,\n  \"phases\": {";
  bool first = true;
  for (const auto& [name, child] : root.children) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + escaped(name) + "\": ";
    render_tree(child, out, 2);
  }
  if (!first) out += "\n  ";
  out += "}\n}\n";
  return out;
}

std::string Profiler::to_collapsed() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const auto& [path, phase] : phases_) {
    std::string line = path;
    std::replace(line.begin(), line.end(), '/', ';');
    out += line + " " + std::to_string(work_of(phase)) + "\n";
  }
  return out;
}

std::string Profiler::summary_json() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"phases\": {";
  bool first = true;
  std::uint64_t total = 0;
  for (const auto& [path, phase] : phases_) {
    if (!first) out += ", ";
    first = false;
    const std::uint64_t w = work_of(phase);
    total += w;
    out += "\"" + escaped(path) + "\": {\"calls\": " +
           std::to_string(phase.calls) + ", \"work\": " + std::to_string(w);
    const std::string counters = render_counters(phase.counters);
    if (!counters.empty()) out += ", \"counters\": " + counters;
    out += "}";
  }
  out += "}, \"total_work\": " + std::to_string(total) + "}";
  return out;
}

std::string Profiler::attribution_table(std::size_t top_n) const {
  std::vector<std::pair<std::string, Phase>> ranked;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ranked.assign(phases_.begin(), phases_.end());
  }
  std::uint64_t total = 0;
  for (const auto& [path, phase] : ranked) {
    (void)path;
    total += work_of(phase);
  }
  // Work-descending, path-ascending on ties: a deterministic ranking.
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     const std::uint64_t wa = work_of(a.second);
                     const std::uint64_t wb = work_of(b.second);
                     if (wa != wb) return wa > wb;
                     return a.first < b.first;
                   });
  if (ranked.size() > top_n) ranked.resize(top_n);

  std::size_t width = 5;  // "phase"
  for (const auto& [path, phase] : ranked) {
    (void)phase;
    width = std::max(width, path.size());
  }
  std::ostringstream os;
  os << "performance attribution (top " << ranked.size() << " of "
     << phase_count() << " phases, by work units)\n";
  os << "  " << std::string(width, '-') << "\n";
  for (const auto& [path, phase] : ranked) {
    const std::uint64_t w = work_of(phase);
    const double share = total == 0 ? 0.0 : 100.0 * static_cast<double>(w) /
                                                static_cast<double>(total);
    char head[64];
    std::snprintf(head, sizeof(head), "%5.1f%%  ", share);
    os << "  " << head << path << std::string(width - path.size(), ' ')
       << "  calls=" << phase.calls << " work=" << w;
    // The phase's dominant counter, so the table names the work unit.
    const auto& counters = phase.counters;
    if (!counters.empty()) {
      auto top = counters.begin();
      for (auto it = counters.begin(); it != counters.end(); ++it) {
        if (it->second > top->second) top = it;
      }
      os << "  [" << top->first << "=" << top->second << "]";
    }
    os << "\n";
  }
  return os.str();
}

bool Profiler::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << to_json();
  return static_cast<bool>(out);
}

bool Profiler::write_collapsed(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << to_collapsed();
  return static_cast<bool>(out);
}

void Profiler::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  phases_.clear();
}

}  // namespace bmp::obs
