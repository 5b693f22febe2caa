// obs_query — offline rollup of dumped shard telemetry snapshots.
//
//   obs_query <shard.json>... [--quantile NAME:Q]... [--top NAME[:K]]...
//             [--json] [--prometheus] [--out FILE]
//
// Inputs are RollupSnapshot::to_json() dumps (one per shard — bench_obs
// and the sharded_rollup example write them). The tool merges them into
// the global rollup (merge order cannot matter — the snapshots' merge is
// exact and commutative) and prints:
//   default        the human-readable global rollup (counters, gauges,
//                  sketch summaries, heavy-hitter tables)
//   --quantile     one `NAME qQ = value` line per query, answered from the
//                  merged sketch under its alpha relative-error contract
//   --top          the K heaviest entries of top-K series NAME
//   --json         the merged rollup in lossless snapshot JSON (pipe it
//                  back into obs_query to continue a hierarchy offline)
//   --prometheus   the merged rollup in Prometheus exposition format
//   --out          also write the lossless merged snapshot to FILE
// Exit codes: 0 ok, 1 usage, 2 unreadable/malformed input (including dumps
// that define the same series differently and so cannot merge), 3 a query
// named a series the rollup does not carry.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bmp/obs/export.hpp"
#include "bmp/obs/rollup.hpp"

namespace {

int usage() {
  std::cerr << "usage: obs_query <shard.json>... [--quantile NAME:Q]..."
               " [--top NAME[:K]]... [--json] [--prometheus] [--out FILE]\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> files;
  std::vector<std::pair<std::string, double>> quantiles;
  std::vector<std::pair<std::string, std::size_t>> tops;
  bool as_json = false;
  bool as_prometheus = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      as_json = true;
    } else if (arg == "--prometheus") {
      as_prometheus = true;
    } else if (arg == "--out") {
      if (i + 1 >= argc) return usage();
      out_path = argv[++i];
    } else if (arg == "--quantile") {
      if (i + 1 >= argc) return usage();
      const std::string spec = argv[++i];
      const std::size_t colon = spec.rfind(':');
      if (colon == std::string::npos) return usage();
      quantiles.emplace_back(spec.substr(0, colon),
                             std::atof(spec.c_str() + colon + 1));
    } else if (arg == "--top") {
      if (i + 1 >= argc) return usage();
      const std::string spec = argv[++i];
      const std::size_t colon = spec.rfind(':');
      if (colon == std::string::npos) {
        tops.emplace_back(spec, 0);
      } else {
        tops.emplace_back(spec.substr(0, colon),
                          static_cast<std::size_t>(
                              std::atoll(spec.c_str() + colon + 1)));
      }
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) return usage();

  bmp::obs::RollupSnapshot global;
  global.shards = 0;
  for (const std::string& path : files) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "obs_query: cannot read " << path << "\n";
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bmp::obs::RollupSnapshot shard;
    if (!bmp::obs::parse_rollup_json(buffer.str(), shard)) {
      std::cerr << "obs_query: " << path
                << " is not a rollup dump (RollupSnapshot::to_json format)\n";
      return 2;
    }
    try {
      global.merge(shard);
    } catch (const std::invalid_argument& error) {
      std::cerr << "obs_query: " << path
                << " conflicts with the dumps before it: " << error.what()
                << "\n";
      return 2;
    }
  }

  if (!out_path.empty() && !global.write(out_path)) {
    std::cerr << "obs_query: cannot write " << out_path << "\n";
    return 2;
  }

  if (as_json) {
    std::cout << global.to_json() << "\n";
  } else if (as_prometheus) {
    std::cout << bmp::obs::to_prometheus(global);
  } else if (quantiles.empty() && tops.empty()) {
    std::cout << global.to_string();
  }

  for (const auto& [name, q] : quantiles) {
    const auto it = global.sketches.find(name);
    if (it == global.sketches.end()) {
      std::cerr << "obs_query: no sketch named '" << name << "'\n";
      return 3;
    }
    char line[160];
    std::snprintf(line, sizeof(line), "%s q%.6g = %.12g (alpha=%g)\n",
                  name.c_str(), q, it->second.quantile(q),
                  it->second.config().alpha);
    std::cout << line;
  }
  for (const auto& [name, k] : tops) {
    const auto it = global.topks.find(name);
    if (it == global.topks.end()) {
      std::cerr << "obs_query: no top-k series named '" << name << "'\n";
      return 3;
    }
    std::cout << "topk " << name << " total=" << it->second.total_weight()
              << "\n";
    for (const bmp::obs::TopKEntry& row : it->second.top(k)) {
      std::cout << "  " << row.key << " count=" << row.count
                << " (overcount<=" << row.error << ")\n";
    }
  }
  return 0;
}
