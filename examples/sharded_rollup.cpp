// sharded_rollup — the telemetry-at-scale determinism demo.
//
// One deterministic workload is recorded twice: once into a single
// ShardRegistry, and once split across N per-shard registries that are
// rolled up through a RollupTree. Because every merge in the rollup layer
// is exact and commutative/associative (counter sums, min/max gauge
// reductions, bucket-wise sketch merges, top-K summary unions), the merged
// global snapshot must be BYTE-identical to the single-registry run — for
// every shard order and tree fanout. This binary asserts exactly that and
// exits non-zero on any mismatch; the runtime-smoke CI job runs it.
//
//   sharded_rollup [--shards N] [--events M] [--json]
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bmp/obs/export.hpp"
#include "bmp/obs/rollup.hpp"

namespace {

struct Series {
  bmp::obs::ShardRegistry::CounterHandle delivered;
  bmp::obs::ShardRegistry::CounterHandle retransmits;
  bmp::obs::ShardRegistry::GaugeHandle alive;
  bmp::obs::ShardRegistry::GaugeHandle worst_ratio;
  bmp::obs::ShardRegistry::SketchHandle latency;
  bmp::obs::ShardRegistry::TopKHandle worst_nodes;
};

Series register_series(bmp::obs::ShardRegistry& reg) {
  Series s;
  s.delivered = reg.counter_handle("dataplane.delivered");
  s.retransmits = reg.counter_handle("dataplane.retransmits");
  s.alive =
      reg.gauge_handle("population.alive", bmp::obs::GaugeReduction::kSum);
  s.worst_ratio =
      reg.gauge_handle("slo.worst_ratio", bmp::obs::GaugeReduction::kMin);
  s.latency =
      reg.sketch_handle("dataplane.chunk_latency", bmp::obs::SketchConfig{});
  s.worst_nodes = reg.topk_handle("hot.node_retransmits", 16);
  return s;
}

/// Deterministic synthetic event stream. Everything recorded here depends
/// only on the event id, so splitting events across shards partitions the
/// exact same multiset the single registry sees.
void feed(bmp::obs::ShardRegistry& reg, const Series& s, int event) {
  reg.inc(s.delivered);
  if (event % 7 == 0) {
    reg.inc(s.retransmits);
    // 16 distinct keys against capacity 16: the space-saving summary never
    // evicts, so its counts are exact and the sharded union reproduces the
    // single registry byte for byte. (Past capacity the two are both valid
    // approximations but legitimately different ones — the union, having
    // seen narrower per-shard streams, is the tighter of the two.)
    reg.offer(s.worst_nodes, "node:" + std::to_string(event % 16));
  }
  reg.observe(s.latency, 0.001 * (event * 37 % 997 + 1));
}

}  // namespace

int main(int argc, char** argv) {
  int shards = 8;
  int events = 20000;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--events") == 0 && i + 1 < argc) {
      events = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      std::cerr << "usage: sharded_rollup [--shards N] [--events M] [--json]\n";
      return 1;
    }
  }
  if (shards < 1 || events < 1) {
    std::cerr << "sharded_rollup: --shards and --events must be >= 1\n";
    return 1;
  }

  // Reference: the whole stream into one registry. Gauges are set to what
  // the sharded reductions must reproduce: population sums across shards
  // (125 per shard — integral, so any summation grouping is exact), the
  // worst-ratio takes the fleet minimum.
  bmp::obs::ShardRegistry single;
  const Series single_series = register_series(single);
  for (int k = 0; k < events; ++k) feed(single, single_series, k);
  single.set(single_series.alive, 125.0 * shards);
  single.set(single_series.worst_ratio, 0.5);
  bmp::obs::RollupSnapshot reference = single.snapshot();
  reference.shards = shards;  // compare contents, not the shard count

  // Same stream, split across per-shard registries.
  std::vector<bmp::obs::ShardRegistry> fleet(
      static_cast<std::size_t>(shards));
  std::vector<Series> series;
  series.reserve(fleet.size());
  for (bmp::obs::ShardRegistry& reg : fleet) {
    series.push_back(register_series(reg));
  }
  for (int k = 0; k < events; ++k) {
    const auto shard = static_cast<std::size_t>(k % shards);
    feed(fleet[shard], series[shard], k);
  }
  for (std::size_t s = 0; s < fleet.size(); ++s) {
    fleet[s].set(series[s].alive, 125.0);
    fleet[s].set(series[s].worst_ratio, 0.5 + 0.01 * static_cast<double>(s));
  }
  std::vector<bmp::obs::RollupSnapshot> snaps;
  snaps.reserve(fleet.size());
  for (const bmp::obs::ShardRegistry& reg : fleet) {
    snaps.push_back(reg.snapshot());
  }

  // Roll up under several orders and tree shapes; every result must match
  // the single-registry bytes.
  const std::string expected = reference.to_json();
  int failures = 0;
  const auto check = [&](const std::string& label,
                         const bmp::obs::RollupSnapshot& got) {
    const std::string actual = got.to_json();
    if (actual != expected) {
      ++failures;
      std::cerr << "MISMATCH [" << label << "]: rollup diverges from the "
                << "single-registry run (" << actual.size() << " vs "
                << expected.size() << " bytes)\n";
    } else {
      std::cout << "ok [" << label << "]\n";
    }
  };
  check("forward fold", bmp::obs::rollup(snaps));
  std::vector<bmp::obs::RollupSnapshot> reversed(snaps.rbegin(),
                                                 snaps.rend());
  check("reverse fold", bmp::obs::rollup(reversed));
  for (const int fanout : {2, 3}) {
    bmp::obs::RollupTree tree(fanout);
    for (const bmp::obs::RollupSnapshot& snap : snaps) tree.add(snap);
    check("tree fanout " + std::to_string(fanout), tree.global());
  }

  if (json) {
    std::cout << bmp::obs::to_json(reference) << "\n";
  } else {
    std::cout << reference.to_string();
  }
  if (failures != 0) {
    std::cerr << "sharded_rollup: " << failures << " rollup(s) diverged\n";
    return 2;
  }
  std::cout << "sharded_rollup: " << shards << " shards x " << events
            << " events rolled up byte-identical to the single registry\n";
  return 0;
}
