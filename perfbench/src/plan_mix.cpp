// plan_mix — one closed-loop caller issuing engine::Planner::plan over a
// generated platform corpus with fixed class shares. Every 20-op cycle
// holds exactly
//   6 repeats of one of the last 24 new platforms   (cache hits,    30%)
//  11 new mixed-firewall platforms, 500-2000 peers  (acyclic miss,  55%)
//   3 new all-open platforms, 500-1000 peers        (cyclic miss,   15%)
// Sizes are stratified across each range, so the seed moves bandwidths,
// the size inside each stratum and the op order, never the class mix: p50
// sits inside the acyclic misses and the tail inside the cyclic misses on
// every seed.
#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bmp/core/bounds.hpp"
#include "bmp/core/greedy_test.hpp"
#include "bmp/core/instance.hpp"
#include "bmp/engine/plan_cache.hpp"
#include "bmp/engine/planner.hpp"
#include "bmp/flow/verify.hpp"
#include "bmp/gen/distributions.hpp"
#include "bmp/util/rng.hpp"
#include "common.hpp"

namespace perfbench {
namespace {

using bmp::engine::Algorithm;
using bmp::engine::Planner;
using bmp::engine::PlanResponse;

enum class Kind { kHit, kAcyclic, kCyclic };

constexpr int kHitsPerCycle = 6;
constexpr int kAcyclicPerCycle = 11;
constexpr int kCyclicPerCycle = 3;
constexpr int kRecent = 24;   ///< repeats target one of the last 24 platforms
constexpr int kPrimed = 8;    ///< new platforms planned before cycle one
constexpr int kCyclesPerEpisode = 40;
constexpr int kMinEpisodes = 5;     ///< worst_ratio's fixed episode set
constexpr int kTracedEpisodes = 2;
constexpr std::size_t kCacheCapacity = 256;
/// Set-up cycles: enough new platforms to fill the plan cache, so every
/// measured cycle runs against a full cache that evicts as it inserts.
constexpr int kWarmupCycles =
    (static_cast<int>(kCacheCapacity) - kPrimed + kAcyclicPerCycle +
     kCyclicPerCycle - 1) /
    (kAcyclicPerCycle + kCyclicPerCycle);

struct Op {
  Kind kind = Kind::kHit;
  std::shared_ptr<const bmp::Instance> instance;
};

/// The seeded platform stream of one episode.
class Corpus {
 public:
  explicit Corpus(std::uint64_t seed) : rng_(seed) {}

  /// New platforms planned during set-up, so the first cycle's repeats
  /// have targets: two cyclic, the rest acyclic, random strata.
  std::vector<Op> priming() {
    std::vector<Op> ops;
    for (int k = 0; k < kPrimed; ++k) {
      const Kind kind = k % 4 == 3 ? Kind::kCyclic : Kind::kAcyclic;
      ops.push_back(fresh(kind, rng_.uniform()));
    }
    return ops;
  }

  std::vector<Op> cycle() {
    std::vector<Kind> order;
    order.insert(order.end(), kHitsPerCycle, Kind::kHit);
    order.insert(order.end(), kAcyclicPerCycle, Kind::kAcyclic);
    order.insert(order.end(), kCyclicPerCycle, Kind::kCyclic);
    shuffle(order);
    std::vector<int> acyclic_strata(kAcyclicPerCycle);
    std::vector<int> cyclic_strata(kCyclicPerCycle);
    for (int k = 0; k < kAcyclicPerCycle; ++k) acyclic_strata[k] = k;
    for (int k = 0; k < kCyclicPerCycle; ++k) cyclic_strata[k] = k;
    shuffle(acyclic_strata);
    shuffle(cyclic_strata);

    std::vector<Op> ops;
    int next_acyclic = 0;
    int next_cyclic = 0;
    for (const Kind kind : order) {
      if (kind == Kind::kHit) {
        ops.push_back(recent_[rng_.below(recent_.size())]);
        ops.back().kind = Kind::kHit;
      } else if (kind == Kind::kAcyclic) {
        const int stratum = acyclic_strata[next_acyclic++];
        ops.push_back(fresh(kind, (stratum + rng_.uniform()) / kAcyclicPerCycle));
      } else {
        const int stratum = cyclic_strata[next_cyclic++];
        ops.push_back(fresh(kind, (stratum + rng_.uniform()) / kCyclicPerCycle));
      }
    }
    return ops;
  }

 private:
  template <typename T>
  void shuffle(std::vector<T>& values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      std::swap(values[i - 1], values[rng_.below(i)]);
    }
  }

  /// A new platform at relative position `at` in [0, 1) of its class's
  /// size range: mixed firewall (half the peers guarded) for acyclic,
  /// all open for cyclic. The source sits at the fixed point of the
  /// cyclic bound (paper §XII), so it is never the lone bottleneck.
  Op fresh(Kind kind, double at) {
    const bool mixed = kind == Kind::kAcyclic;
    const int size = mixed ? 500 + static_cast<int>(1500.0 * at)
                           : 500 + static_cast<int>(500.0 * at);
    const int guarded = mixed ? size / 2 : 0;
    std::vector<double> open =
        bmp::gen::sample_many(bmp::gen::Dist::kUnif100, size - guarded, rng_);
    std::vector<double> closed =
        bmp::gen::sample_many(bmp::gen::Dist::kLogNormal1, guarded, rng_);
    const double source = bmp::fixed_point_source_bandwidth(open, closed);
    Op op;
    op.kind = kind;
    op.instance = std::make_shared<const bmp::Instance>(
        source, std::move(open), std::move(closed));
    recent_.push_back(op);
    if (recent_.size() > static_cast<std::size_t>(kRecent)) recent_.pop_front();
    return op;
  }

  bmp::util::Xoshiro256 rng_;
  std::deque<Op> recent_;
};

/// Paper degree guarantees (E9 degree audit): Lemma 4.6 acyclic schemes
/// keep guarded nodes within ceil(b/T) + 1 and open nodes within
/// ceil(b/T) + 2 (one node may reach + 3); Thm 5.2 cyclic schemes within
/// max(ceil(b/T) + 2, 4).
bool degree_bound_met(const bmp::Instance& instance,
                      const bmp::BroadcastScheme& scheme, double throughput,
                      bool cyclic) {
  if (throughput <= 0.0) return false;
  int plus3 = 0;
  for (int i = 0; i < instance.size(); ++i) {
    const int base =
        static_cast<int>(std::ceil(instance.b(i) / throughput - 1e-9));
    const int degree = scheme.out_degree(i);
    if (cyclic) {
      if (degree > std::max(base + 2, 4)) return false;
    } else if (instance.is_guarded(i)) {
      if (degree > base + 1) return false;
    } else if (degree > base + 3 || (degree == base + 3 && ++plus3 > 1)) {
      return false;
    }
  }
  return true;
}

/// How far the verified throughput may sit from the claimed one: 1e-9
/// relative, or — when larger — the construction's own float tolerance.
/// GreedyTest accepts each of the n + m letters it places within
/// greedy_tie_tolerance (1e-12 x total bandwidth, taken at the search's
/// upper bound), so the acyclic claim can exceed what its scheme delivers
/// by up to (n + m) of those. Gaps beyond 1e-9 relative are still counted
/// and printed (`claim gaps`), so the construction's slack stays visible.
double claim_tolerance(const bmp::Instance& instance, double claimed) {
  const double relative = 1e-9 * std::max(1.0, std::abs(claimed));
  const double tie = bmp::greedy_tie_tolerance(
      instance, bmp::cyclic_upper_bound(instance));
  return std::max(relative, static_cast<double>(instance.n() + instance.m()) * tie);
}

struct Pass {
  Load load;
  std::uint64_t episodes = 0;
  Digest digest;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  Checks checks;
  std::uint64_t claim_gaps = 0;      ///< misses verified > 1e-9 rel off the claim
  double max_claim_gap = 0.0;        ///< largest relative claim gap
  std::uint64_t tier2_verifies = 0;
  std::uint64_t tier2_solves = 0;
  std::uint64_t tier2_bfs_rounds = 0;
  double wall_s = 0.0;
};

class PlanMix {
 public:
  /// `spans` non-null: the traced pass — every miss is also replayed
  /// through Planner::plan_uncached and flow::Verifier::verify.
  explicit PlanMix(SpanLog* spans) : spans_(spans) {}

  Pass run(std::uint64_t seed, double budget_s, int episodes) {
    Pass pass;
    pass.wall_s = run_episodes(seed, budget_s, episodes, kMinEpisodes,
                               [&](std::uint64_t episode_seed) {
                                 run_episode(episode_seed, pass);
                               });
    return pass;
  }

 private:
  void run_episode(std::uint64_t seed, Pass& pass) {
    pass.load.begin_episode();
    const Clock::time_point setup_start = Clock::now();
    Corpus corpus(seed);
    bmp::engine::PlannerConfig config;
    config.threads = kPlannerThreads;
    config.cache_capacity = kCacheCapacity;
    Planner planner(config);
    for (const Op& op : corpus.priming()) plan_one(planner, op, pass, false);
    for (int c = 0; c < kWarmupCycles; ++c) {
      for (const Op& op : next_cycle(corpus)) plan_one(planner, op, pass, false);
    }
    pass.load.setup_seconds.push_back(seconds_since(setup_start));

    for (int c = 0; c < kCyclesPerEpisode; ++c) {
      for (const Op& op : next_cycle(corpus)) plan_one(planner, op, pass, true);
    }
    const bmp::engine::CacheStats stats = planner.cache_stats();
    pass.cache_hits += stats.hits;
    pass.cache_misses += stats.misses;
    ++pass.episodes;
  }

  std::vector<Op> next_cycle(Corpus& corpus) {
    const Clock::time_point begin = Clock::now();
    std::vector<Op> ops = corpus.cycle();
    if (spans_ != nullptr) spans_->add("gen.platform", op_id_, begin, Clock::now());
    return ops;
  }

  void plan_one(Planner& planner, const Op& op, Pass& pass, bool measured) {
    const std::uint64_t id = ++op_id_;
    const bmp::Instance& instance = *op.instance;
    const Clock::time_point begin = Clock::now();
    const PlanResponse response = planner.plan(instance, Algorithm::kAuto, 0);
    const Clock::time_point end = Clock::now();
    if (spans_ != nullptr) {
      spans_->add(op.kind == Kind::kHit       ? "engine.plan.hit"
                  : op.kind == Kind::kAcyclic ? "engine.plan.miss.acyclic"
                                              : "engine.plan.miss.cyclic",
                  id, begin, end);
    }

    std::string error = check(op, response);
    if (spans_ != nullptr && op.kind != Kind::kHit && error.empty()) {
      error = replay(op, response, id, pass);
    }
    if (!response.cache_hit && response.throughput > 0.0) {
      const double gap =
          std::abs(response.verified_throughput - response.throughput) /
          response.throughput;
      if (gap > 1e-9) ++pass.claim_gaps;
      pass.max_claim_gap = std::max(pass.max_claim_gap, gap);
    }
    const bool ok = error.empty();
    if (!ok) pass.checks.fail(error);
    pass.digest.add(static_cast<std::uint64_t>(op.kind));
    pass.digest.add(static_cast<std::uint64_t>(response.cache_hit));
    pass.digest.add(response.throughput);
    pass.digest.add(response.verified_throughput);
    if (response.verified_throughput >= 0.0) {
      pass.load.quality(response.verified_throughput /
                        bmp::cyclic_upper_bound(instance));
    }
    if (measured) {
      pass.load.record(std::chrono::duration<double>(end - begin).count(), ok);
    }
  }

  /// Per-op correctness, outside the timed call.
  static std::string check(const Op& op, const PlanResponse& response) {
    const bmp::Instance& instance = *op.instance;
    if (response.scheme == nullptr) return "no scheme";
    if (response.cache_hit != (op.kind == Kind::kHit)) {
      return "class broken: cache_hit != planned repeat";
    }
    const double claimed = response.throughput;
    const double verified = response.verified_throughput;
    if (!(std::abs(verified - claimed) <= claim_tolerance(instance, claimed))) {
      return "verified throughput " + std::to_string(verified) +
             " != claimed " + std::to_string(claimed);
    }
    const bool cyclic = response.algorithm == Algorithm::kCyclic;
    if (cyclic != (op.kind == Kind::kCyclic) && op.kind != Kind::kHit) {
      return "construction does not match the platform class";
    }
    if (!response.degree_bound_met ||
        !degree_bound_met(instance, *response.scheme, claimed, cyclic)) {
      return "degree bound violated";
    }
    if (op.kind != Kind::kHit && !response.scheme->validate(instance).empty()) {
      return "scheme breaks a bandwidth or firewall constraint";
    }
    return {};
  }

  /// Traced pass only: construction and verification of the miss, each
  /// replayed through its own public entry point under its own span.
  std::string replay(const Op& op, const PlanResponse& response,
                     std::uint64_t id, Pass& pass) {
    const bool cyclic = op.kind == Kind::kCyclic;
    Clock::time_point begin = Clock::now();
    const PlanResponse rebuilt =
        Planner::plan_uncached(*op.instance, Algorithm::kAuto, 0);
    spans_->add(cyclic ? "core.construct.cyclic" : "core.construct.acyclic",
                id, begin, Clock::now());
    begin = Clock::now();
    const bmp::flow::VerifyResult verified = verifier_.verify(*rebuilt.scheme);
    const bool tier2 = verified.tier != bmp::flow::VerifyTier::kAcyclicSweep;
    spans_->add(tier2 ? "flow.verify.tier2" : "flow.verify.tier1", id, begin,
                Clock::now());
    if (tier2) {
      ++pass.tier2_verifies;
      pass.tier2_solves += static_cast<std::uint64_t>(verified.maxflow_solves);
      pass.tier2_bfs_rounds += verified.bfs_rounds;
    }
    if (rebuilt.throughput != response.throughput ||
        verified.throughput != response.verified_throughput) {
      return "plan_uncached / verify replay disagrees with Planner::plan";
    }
    return {};
  }

  SpanLog* spans_;
  bmp::flow::Verifier verifier_;
  std::uint64_t op_id_ = 0;
};

void report_checks(const Pass& pass, Result& result) {
  pass.checks.report(result);
  std::ostringstream gaps;
  gaps << "claim gaps: " << pass.claim_gaps << " of " << pass.cache_misses
       << " computed plans verified more than 1e-9 relative below their "
          "claimed throughput (max "
       << pass.max_claim_gap << "), all within the accumulated tie tolerance"
       << (pass.checks.failures > 0 ? " unless flagged above" : "");
  result.notes.push_back(gaps.str());
}

}  // namespace

Result run_plan_mix(const Options& options) {
  Result result;
  if (!options.trace) {
    PlanMix workload(nullptr);
    const Pass pass = workload.run(options.seed, options.seconds, 0);
    report_checks(pass, result);
    add_end_to_end(pass.load, kMinEpisodes, result);
    result.attempted = pass.load.attempted;
    result.failed = pass.load.attempted - pass.load.succeeded;
    std::ostringstream line;
    line << pass.episodes << " episodes, " << pass.load.attempted
         << " measured plan requests, cache " << pass.cache_hits << " hits / "
         << pass.cache_misses << " misses";
    result.notes.push_back(line.str());
    return result;
  }

  // Traced run: a fixed amount of work (kTracedEpisodes episodes), first
  // untraced, then again with spans and replays.
  PlanMix plain(nullptr);
  const Pass base = plain.run(options.seed, 0.0, kTracedEpisodes);
  SpanLog spans;
  PlanMix traced(&spans);
  const Pass pass = traced.run(options.seed, 0.0, kTracedEpisodes);
  base.checks.report(result);
  report_checks(pass, result);
  result.attempted = pass.load.attempted;
  result.failed = pass.load.attempted - pass.load.succeeded;

  report_fidelity(base.digest.value() == pass.digest.value() &&
                      base.load.episode_worst == pass.load.episode_worst &&
                      base.load.succeeded == pass.load.succeeded &&
                      base.cache_hits == pass.cache_hits &&
                      base.cache_misses == pass.cache_misses,
                  result);

  const auto med = [&](const char* name) { return median(spans.durations(name)); };
  const auto sum = [&](const char* name) {
    double total = 0.0;
    for (const double us : spans.durations(name)) total += us;
    return total;
  };
  const double miss_us =
      sum("engine.plan.miss.acyclic") + sum("engine.plan.miss.cyclic");
  const double replay_us = sum("core.construct.acyclic") +
                           sum("core.construct.cyclic") +
                           sum("flow.verify.tier1") + sum("flow.verify.tier2");
  const double lookups = static_cast<double>(pass.cache_hits + pass.cache_misses);
  const double t2 = static_cast<double>(std::max<std::uint64_t>(1, pass.tier2_verifies));
  result.metrics = {
      {"engine.plan_hit_us", "us", med("engine.plan.hit")},
      {"engine.plan_miss_us.acyclic", "us", med("engine.plan.miss.acyclic")},
      {"engine.plan_miss_us.cyclic", "us", med("engine.plan.miss.cyclic")},
      {"engine.cache_hit_ratio", "ratio",
       lookups > 0.0 ? static_cast<double>(pass.cache_hits) / lookups : 0.0},
      {"core.construct_us.acyclic", "us", med("core.construct.acyclic")},
      {"core.construct_us.cyclic", "us", med("core.construct.cyclic")},
      {"flow.verify_us.tier1", "us", med("flow.verify.tier1")},
      {"flow.verify_us.tier2", "us", med("flow.verify.tier2")},
      {"flow.tier2_maxflow_solves", "count/verify",
       static_cast<double>(pass.tier2_solves) / t2},
      {"flow.bfs_rounds", "count/verify",
       static_cast<double>(pass.tier2_bfs_rounds) / t2},
      {"core.claim_gap_max_rel", "ratio", pass.max_claim_gap},
      {"engine.miss_overhead_share", "ratio",
       miss_us > 0.0 ? (miss_us - replay_us) / miss_us : 0.0},
      {"bench.tracing_overhead", "ratio", base.wall_s > 0.0 ? pass.wall_s / base.wall_s : 0.0},
      {"bench.attributed_share", "ratio",
       pass.wall_s > 0.0 ? spans.covered_us() / (1e6 * pass.wall_s) : 0.0},
  };

  std::ostringstream classes;
  classes.precision(4);
  classes << "per-class plan latency (us, p50): hit " << med("engine.plan.hit")
          << ", acyclic miss " << med("engine.plan.miss.acyclic")
          << ", cyclic miss " << med("engine.plan.miss.cyclic") << "; "
          << pass.tier2_verifies << " tier-2 verifies, " << pass.tier2_solves
          << " max-flow solves, " << pass.tier2_bfs_rounds << " BFS rounds";
  result.notes.push_back(classes.str());
  return result;
}

}  // namespace perfbench
