#include "bmp/engine/planner.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "bmp/baselines/baselines.hpp"
#include "bmp/core/acyclic_search.hpp"
#include "bmp/core/bounds.hpp"
#include "bmp/core/cyclic_open.hpp"
#include "bmp/engine/plan_cache.hpp"
#include "bmp/flow/verify.hpp"
#include "bmp/obs/profiler.hpp"
#include "bmp/obs/trace.hpp"
#include "bmp/util/thread_pool.hpp"

namespace bmp::engine {

const char* to_string(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kAuto: return "auto";
    case Algorithm::kAcyclic: return "acyclic";
    case Algorithm::kCyclic: return "cyclic";
    case Algorithm::kBaselineTree: return "kary-tree";
    case Algorithm::kBaselineChain: return "chain";
  }
  return "?";
}

namespace {

// An injected outage takes the planning *service* down, cache included:
// a real outage takes the whole endpoint, not just cold misses.
void refuse_if_down(PlannerOutage* outage) {
  if (outage == nullptr || !outage->down) return;
  ++outage->failures;
  throw PlannerUnavailable();
}

PlanResponse make_response(BroadcastScheme scheme, double throughput,
                           Algorithm used, int bound) {
  PlanResponse response;
  response.max_degree = scheme.max_out_degree();
  response.scheme = std::make_shared<const BroadcastScheme>(std::move(scheme));
  response.throughput = throughput;
  response.algorithm = used;
  response.degree_bound_met = bound == 0 || response.max_degree <= bound;
  return response;
}

PlanResponse from_baseline(baselines::BaselineResult result, Algorithm used,
                           int bound) {
  return make_response(std::move(result.scheme), result.throughput, used,
                       bound);
}

PlanResponse plan_acyclic(const Instance& instance, int bound) {
  AcyclicSolution solution = solve_acyclic(instance);
  return make_response(std::move(solution.scheme), solution.throughput,
                       Algorithm::kAcyclic, bound);
}

/// Thm 5.2 requires an open-only platform with at least one peer; anything
/// else degrades to the acyclic construction (which is then optimal anyway
/// for n == 0, and the only guarded-capable scheme we have).
PlanResponse plan_cyclic(const Instance& instance, int bound) {
  if (instance.m() != 0 || instance.n() < 1) {
    return plan_acyclic(instance, bound);
  }
  const double t_star = cyclic_open_optimal(instance);
  BroadcastScheme scheme = build_cyclic_open(instance, t_star);
  // The construction's roundoff gathers in the last node it feeds, which
  // at 200k peers can fall short of T* by more than 1e-9·T*. Claim the
  // least inflow then: no throughput exceeds it.
  std::vector<double> inflow(static_cast<std::size_t>(scheme.num_nodes()));
  for (int i = 0; i < scheme.num_nodes(); ++i) {
    for (const auto& [to, rate] : scheme.out_edges(i)) {
      inflow[static_cast<std::size_t>(to)] += rate;
    }
  }
  const double fed = *std::min_element(inflow.begin() + 1, inflow.end());
  return make_response(std::move(scheme),
                       t_star - fed > 1e-9 * t_star ? fed : t_star,
                       Algorithm::kCyclic, bound);
}

PlanResponse plan_auto(const Instance& instance, int bound) {
  std::vector<PlanResponse> candidates;
  // A candidate whose construction throws drops out (at scale the acyclic
  // one can run its pools dry while Thm 5.2's is valid). The request fails
  // only when every candidate does, with the first error.
  std::exception_ptr first_error;
  const auto offer = [&](auto build) {
    try {
      candidates.push_back(build());
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  };
  offer([&] { return plan_acyclic(instance, bound); });
  if (instance.m() == 0 && instance.n() >= 1) {
    offer([&] { return plan_cyclic(instance, bound); });
  }
  if (bound > 0) {
    // Low-degree fallbacks for tight bounds the optimal schemes overshoot.
    // Tree throughput is not monotone in arity (a wide tree can run out of
    // open interior capacity), so scan every arity the bound allows.
    for (int arity = 1; arity <= bound; ++arity) {
      offer([&] {
        return from_baseline(baselines::kary_tree(instance, arity),
                             Algorithm::kBaselineTree, bound);
      });
    }
    offer([&] {
      return from_baseline(baselines::chain(instance),
                           Algorithm::kBaselineChain, bound);
    });
  }
  if (candidates.empty()) std::rethrow_exception(first_error);

  PlanResponse* best = nullptr;
  for (PlanResponse& candidate : candidates) {
    if (!candidate.degree_bound_met) continue;
    if (best == nullptr || candidate.throughput > best->throughput) {
      best = &candidate;
    }
  }
  if (best == nullptr) {
    // Nothing honors the bound; surface the lowest-degree candidate.
    for (PlanResponse& candidate : candidates) {
      if (best == nullptr || candidate.max_degree < best->max_degree) {
        best = &candidate;
      }
    }
  }
  return std::move(*best);
}

}  // namespace

PlanResponse Planner::plan_uncached(const Instance& instance,
                                    Algorithm algorithm, int max_out_degree) {
  if (max_out_degree < 0) {
    throw std::invalid_argument("Planner: max_out_degree must be >= 0");
  }
  switch (algorithm) {
    case Algorithm::kAuto:
      return plan_auto(instance, max_out_degree);
    case Algorithm::kAcyclic:
      return plan_acyclic(instance, max_out_degree);
    case Algorithm::kCyclic:
      return plan_cyclic(instance, max_out_degree);
    case Algorithm::kBaselineTree:
      return from_baseline(baselines::best_kary_tree(instance),
                           Algorithm::kBaselineTree, max_out_degree);
    case Algorithm::kBaselineChain:
      return from_baseline(baselines::chain(instance),
                           Algorithm::kBaselineChain, max_out_degree);
  }
  throw std::invalid_argument("Planner: unknown algorithm");
}

PlanResponse Planner::plan_uncached(const PlanRequest& request) {
  return plan_uncached(request.instance, request.algorithm,
                       request.max_out_degree);
}

PlanResponse Planner::plan_verified(const Instance& instance,
                                    Algorithm algorithm,
                                    int max_out_degree) const {
  // The compute scope covers construction *and* verification; both the
  // one-shot path and the plan_batch workers land here, so the profiler's
  // "computed" counter equals the cache-miss count for any thread count.
  obs::PhaseScope scope(hooks_.profiler, "planner/compute");
  PlanResponse response = plan_uncached(instance, algorithm, max_out_degree);
  if (config_.verify_plans && response.scheme != nullptr &&
      response.scheme->num_nodes() > 1) {
    // verify_throughput goes through a thread-local Verifier, so
    // plan_batch workers each reuse their own scratch across the batch.
    const flow::VerifyResult verified = flow::verify_throughput(*response.scheme);
    response.verified_throughput = verified.throughput;
    response.verified_tier = verified.tier;
    if (hooks_.profiler != nullptr) {
      hooks_.profiler->enter("planner/compute/verify");
      hooks_.profiler->count("planner/compute/verify",
                             verified.tier == flow::VerifyTier::kAcyclicSweep
                                 ? "tier1_sweeps"
                                 : "tier2_verifies");
      if (verified.maxflow_solves > 0) {
        hooks_.profiler->count(
            "planner/compute/verify", "solves",
            static_cast<std::uint64_t>(verified.maxflow_solves));
        hooks_.profiler->count("planner/compute/verify", "pushes",
                               verified.pushes);
        hooks_.profiler->count("planner/compute/verify", "relabels",
                               verified.relabels);
      }
    }
  }
  return response;
}

Planner::Planner(PlannerConfig config, obs::Hooks hooks)
    : config_(config),
      hooks_(hooks),
      cache_(std::make_unique<PlanCache>(config.cache_capacity)),
      pool_(std::make_unique<util::ThreadPool>(config.threads)) {}

Planner::~Planner() = default;

Fingerprint Planner::request_key(const Fingerprint& instance_fp,
                                 Algorithm algorithm,
                                 int max_out_degree) const {
  Fingerprint key = instance_fp;
  key.hash = mix64(key.hash ^
                   (static_cast<std::uint64_t>(algorithm) << 32) ^
                   static_cast<std::uint64_t>(
                       static_cast<std::uint32_t>(max_out_degree)));
  return key;
}

Fingerprint Planner::request_key(const Instance& instance, Algorithm algorithm,
                                 int max_out_degree) const {
  return request_key(fingerprint(instance, config_.fingerprint_bucket),
                     algorithm, max_out_degree);
}

Fingerprint Planner::request_key(const PlanRequest& request) const {
  return request_key(request.instance, request.algorithm,
                     request.max_out_degree);
}

PlanResponse Planner::plan(const Instance& instance, Algorithm algorithm,
                           int max_out_degree) {
  return plan(instance, algorithm, max_out_degree,
              fingerprint(instance, config_.fingerprint_bucket));
}

PlanResponse Planner::plan(const Instance& instance, Algorithm algorithm,
                           int max_out_degree,
                           const Fingerprint& instance_fp) {
  refuse_if_down(config_.outage);
  const Fingerprint key = request_key(instance_fp, algorithm, max_out_degree);
  if (std::shared_ptr<const PlanResponse> cached = cache_->lookup(key)) {
    PlanResponse response = *cached;
    response.cache_hit = true;
    if (hooks_.profiler != nullptr) {
      hooks_.profiler->enter("planner/plan");
      hooks_.profiler->count("planner/plan", "cache_hits");
    }
    if (hooks_.trace != nullptr) {
      hooks_.trace->complete(obs::Lane::kPlanner, "engine", "plan",
                             {{"alg", to_string(algorithm)},
                              {"n", instance.size()},
                              {"cache_hit", true},
                              {"throughput", response.throughput}});
    }
    return response;
  }
  if (hooks_.profiler != nullptr) {
    hooks_.profiler->enter("planner/plan");
    hooks_.profiler->count("planner/plan", "cache_misses");
  }
  const obs::WallTimer timer(hooks_.trace);
  PlanResponse response = plan_verified(instance, algorithm, max_out_degree);
  cache_->insert(key, std::make_shared<const PlanResponse>(response));
  if (hooks_.trace != nullptr) {
    hooks_.trace->complete(obs::Lane::kPlanner, "engine", "plan",
                           {{"alg", to_string(response.algorithm)},
                            {"n", instance.size()},
                            {"cache_hit", false},
                            {"throughput", response.throughput}},
                           timer.elapsed_us());
  }
  return response;
}

PlanResponse Planner::plan(const PlanRequest& request) {
  return plan(request.instance, request.algorithm, request.max_out_degree);
}

std::vector<PlanResponse> Planner::plan_batch(
    const std::vector<PlanRequest>& requests) {
  refuse_if_down(config_.outage);
  // One work item per distinct fingerprint, in first-occurrence order so the
  // dedup structure (and therefore every response) is independent of thread
  // count and timing. Requests are grouped purely by index: the Instance is
  // never copied — workers read it through requests[first_index], and the
  // fingerprint lives only in the dedup map.
  struct WorkItem {
    Fingerprint key;
    std::size_t first_index = 0;
    std::shared_ptr<const PlanResponse> plan;
    bool from_cache = false;
    double wall_us = -1.0;  ///< per-item plan time, read post-barrier
  };
  std::vector<WorkItem> work;
  std::vector<std::size_t> item_of(requests.size());
  std::unordered_map<Fingerprint, std::size_t, FingerprintHasher> seen;
  seen.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Fingerprint key = request_key(requests[i]);
    const auto [it, inserted] = seen.emplace(key, work.size());
    if (inserted) {
      work.push_back(WorkItem{key, i, nullptr, false});
    }
    item_of[i] = it->second;
  }

  for (WorkItem& item : work) {
    item.plan = cache_->lookup(item.key);
    item.from_cache = item.plan != nullptr;
  }

  const obs::WallTimer batch_timer(hooks_.trace);
  util::parallel_for(
      *pool_, 0, work.size(),
      [&](std::size_t w) {
        WorkItem& item = work[w];
        if (item.plan != nullptr) return;
        const PlanRequest& request = requests[item.first_index];
        const obs::WallTimer timer(hooks_.trace);
        auto plan = std::make_shared<const PlanResponse>(plan_verified(
            request.instance, request.algorithm, request.max_out_degree));
        item.wall_us = timer.elapsed_us();
        cache_->insert(item.key, plan);
        item.plan = std::move(plan);
      },
      /*chunk=*/1);

  std::size_t cached = 0;
  for (const WorkItem& item : work) {
    if (item.from_cache) ++cached;
  }
  if (hooks_.profiler != nullptr) {
    // Post-barrier, like the trace spans: batch totals are recorded once
    // from this thread (the per-item compute/verify counters were summed
    // commutatively by the workers).
    hooks_.profiler->enter("planner/plan_batch");
    hooks_.profiler->count("planner/plan_batch", "requests", requests.size());
    hooks_.profiler->count("planner/plan_batch", "distinct", work.size());
    hooks_.profiler->count("planner/plan_batch", "cache_hits", cached);
    hooks_.profiler->count("planner/plan_batch", "computed",
                           work.size() - cached);
  }
  if (hooks_.trace != nullptr) {
    // Emitted after the barrier, from this thread, in work-item order:
    // append order (and the sequence numbers) never depends on which
    // worker finished first.
    hooks_.trace->complete(
        obs::Lane::kPlanner, "engine", "plan_batch",
        {{"requests", static_cast<std::uint64_t>(requests.size())},
         {"distinct", static_cast<std::uint64_t>(work.size())},
         {"computed", static_cast<std::uint64_t>(work.size() - cached)}},
        batch_timer.elapsed_us());
    for (const WorkItem& item : work) {
      const PlanRequest& request = requests[item.first_index];
      hooks_.trace->complete(obs::Lane::kPlanner, "engine", "plan",
                             {{"alg", to_string(item.plan->algorithm)},
                              {"n", request.instance.size()},
                              {"cache_hit", item.from_cache},
                              {"throughput", item.plan->throughput}},
                             item.wall_us);
    }
  }

  std::vector<PlanResponse> responses(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const WorkItem& item = work[item_of[i]];
    responses[i] = *item.plan;
    // A response is a "hit" when its plan was not computed for this very
    // request: either it was cached across batches, or a duplicate earlier
    // in this batch already triggered the computation.
    responses[i].cache_hit = item.from_cache || i != item.first_index;
  }
  return responses;
}

CacheStats Planner::cache_stats() const { return cache_->stats(); }

}  // namespace bmp::engine
