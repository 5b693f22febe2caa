// Metrics exporters: Prometheus text exposition and compact JSON for a
// RollupSnapshot — one shard's registry snapshot or a merged rollup, the
// same type either way. Both honour the `timing.*` exclusion convention
// (obs::is_timing) so the default export of a timed run is still
// deterministic; the JSON form is single-line so bench_util::JsonReport
// can embed it verbatim in BENCH_*.json files.
#pragma once

#include <string>
#include <string_view>

#include "bmp/obs/rollup.hpp"

namespace bmp::obs {

/// Prometheus text exposition. Metric names are sanitized (`.` and other
/// non-[a-zA-Z0-9_] become `_`) and prefixed. Counters render as
/// `<name>_total`, gauges as gauges. Each sketch renders twice: a summary
/// with q=0.5/0.9/0.99 quantile labels plus `_sum` / `_count`, and a
/// native cumulative histogram `<name>_sketch` whose `le` bounds are the
/// sketch's own log-bucket boundaries gamma^i (empty buckets elided; the
/// cumulative counts are unaffected; `le="+Inf"` equals `_count`).
/// Relative-error contract: every quantile, the sum, and every `le`
/// boundary read as a quantile is within the sketch's configured alpha of
/// the exact value (see obs::Sketch). Top-K series render as one
/// `<name>{key="..."}` gauge sample per retained heavy hitter, in the
/// deterministic top() order.
[[nodiscard]] std::string to_prometheus(const RollupSnapshot& snap,
                                        bool include_timing = false,
                                        std::string_view prefix = "bmp_");

/// Compact JSON rendering (display form — for the lossless wire form use
/// RollupSnapshot::to_json):
/// `{"shards":..,"counters":{..},"gauges":{..},"sketches":{..},"topk":{..}}`.
/// Keys stay name-sorted; values use %.12g. Sketches export count / sum /
/// min / max / mean and p50/p90/p99 under the alpha contract above; topk
/// series export `[key, count, error]` rows in top() order.
[[nodiscard]] std::string to_json(const RollupSnapshot& snap,
                                  bool include_timing = false);

}  // namespace bmp::obs
