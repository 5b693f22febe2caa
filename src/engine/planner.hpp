// The planning engine's front door: a PlanRequest/PlanResponse API over the
// paper's algorithms, service-grade. One-shot `plan()` consults a sharded
// LRU cache keyed by the request fingerprint; `plan_batch()` dedupes a
// whole request stream by fingerprint and plans the distinct platforms
// concurrently on a util::ThreadPool. Results are deterministic: grouping
// is by fingerprint, never by thread timing, so any thread count produces
// identical responses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "bmp/core/instance.hpp"
#include "bmp/core/scheme.hpp"
#include "bmp/engine/fingerprint.hpp"
#include "bmp/flow/verify.hpp"
#include "bmp/obs/hooks.hpp"

namespace bmp::util {
class ThreadPool;
}  // namespace bmp::util

namespace bmp::engine {

class PlanCache;
struct CacheStats;

/// Which overlay construction serves a request. kAuto picks the best
/// throughput among the paper's schemes that honors the degree bound,
/// falling back to a bounded-arity tree when nothing else fits.
enum class Algorithm {
  kAuto,
  kAcyclic,        ///< §IV optimal acyclic (dichotomic GreedyTest search)
  kCyclic,         ///< Thm 5.2 cyclic (open-only; acyclic when guarded nodes exist)
  kBaselineTree,   ///< best k-ary tree baseline
  kBaselineChain,  ///< linear chain baseline
};

[[nodiscard]] const char* to_string(Algorithm algorithm);

struct PlanRequest {
  Instance instance;
  Algorithm algorithm = Algorithm::kAuto;
  /// Maximum allowed out-degree, 0 = unbounded. kAuto treats it as a hard
  /// filter; explicit algorithms report violations via degree_bound_met.
  int max_out_degree = 0;
};

struct PlanResponse {
  /// The planned overlay (shared: cache hits alias one immutable scheme).
  std::shared_ptr<const BroadcastScheme> scheme;
  double throughput = 0.0;
  /// Throughput of `scheme` as re-measured by the tiered verifier
  /// (flow/verify.hpp) when PlannerConfig::verify_plans is on; negative
  /// when verification was disabled. Verification runs once per computed
  /// plan — cache hits inherit the stored value. `verified_tier` records
  /// which tier served it (meaningful only when verified_throughput >= 0),
  /// so telemetry never has to re-derive the dispatch structurally.
  double verified_throughput = -1.0;
  flow::VerifyTier verified_tier = flow::VerifyTier::kOracle;
  Algorithm algorithm = Algorithm::kAcyclic;  ///< construction actually used
  int max_degree = 0;                         ///< max out-degree of `scheme`
  bool degree_bound_met = true;
  bool cache_hit = false;  ///< served from cache (or deduped within a batch)
};

/// Thrown by the cached plan() paths while a fault-injected planner outage
/// is active. Callers with a running overlay keep serving it: Session
/// falls back to its incremental repair result (verified, bounded-stale),
/// the runtime queues the request and retries with backoff.
class PlannerUnavailable : public std::runtime_error {
 public:
  PlannerUnavailable() : std::runtime_error("planner unavailable (outage)") {}
};

/// Fault-injection hook for planner outages — same null-by-default
/// convention as obs::Hooks. The owner (the runtime, or a test)
/// toggles `down`; while set, every cached plan() entry point throws
/// PlannerUnavailable and counts the refusal. plan_uncached stays pure —
/// outages model the *service* failing, not the algorithms.
struct PlannerOutage {
  bool down = false;
  std::uint64_t failures = 0;  ///< plan() calls refused while down
};

struct PlannerConfig {
  std::size_t threads = 0;  ///< worker threads for plan_batch; 0 = hardware
  std::size_t cache_capacity = 4096;  ///< plans retained across requests
  double fingerprint_bucket = 1e-6;  ///< bandwidth quantum for dedup
  /// Verify every computed plan against the §II.D max-flow definition
  /// before caching it. Near-free since the tiered verifier sweeps the
  /// acyclic constructions in O(V + E) with zero max-flow solves.
  bool verify_plans = true;
  /// Planner-failure injection (null = no outages ever).
  PlannerOutage* outage = nullptr;
};

class Planner {
 public:
  /// `hooks.trace`: a span per plan()/plan_batch(). Worker threads never
  /// touch the sink: plan_batch emits its per-item spans after the pool
  /// barrier in work-item index order, so the trace is byte-identical for
  /// any thread count. `hooks.profiler`: cache hits/misses, computed plans
  /// and their verification work under "planner/..."; worker threads
  /// record commutative counter sums. The pool's verifiers stay untraced.
  explicit Planner(PlannerConfig config = {}, obs::Hooks hooks = {});
  ~Planner();

  Planner(const Planner&) = delete;
  Planner& operator=(const Planner&) = delete;

  /// Plans one request, consulting and populating the cache.
  PlanResponse plan(const PlanRequest& request);

  /// By-reference single-plan path: identical to plan(PlanRequest) but
  /// never copies the Instance into a request carrier — the call sites
  /// that re-plan on every churn event (engine::Session, the runtime) go
  /// through here.
  PlanResponse plan(const Instance& instance, Algorithm algorithm = Algorithm::kAuto,
                    int max_out_degree = 0);

  /// Same cached path, but with a caller-maintained instance fingerprint
  /// (engine::IncrementalFingerprint) instead of the O(n) rehash — the
  /// churn hot path: a Session updates its fingerprint per join/leave
  /// delta and plans without ever re-touching the survivor bandwidths.
  /// `instance_fp` must equal fingerprint(instance,
  /// config().fingerprint_bucket); a mismatched fingerprint silently
  /// poisons the cache, which is why the differential tests replay churn
  /// sequences against the full rehash.
  PlanResponse plan(const Instance& instance, Algorithm algorithm,
                    int max_out_degree, const Fingerprint& instance_fp);

  /// Plans a request stream: responses[i] answers requests[i]. Distinct
  /// fingerprints are planned concurrently; duplicates are planned once and
  /// referenced by index — the batch path never copies an Instance.
  std::vector<PlanResponse> plan_batch(const std::vector<PlanRequest>& requests);

  /// Pure planning, no cache, no pool — the function of record the cached
  /// paths must agree with.
  static PlanResponse plan_uncached(const PlanRequest& request);
  static PlanResponse plan_uncached(const Instance& instance, Algorithm algorithm,
                                    int max_out_degree);

  /// Cache key of a request: instance fingerprint with the algorithm and
  /// degree bound mixed in (same platform, different knobs != same plan).
  [[nodiscard]] Fingerprint request_key(const PlanRequest& request) const;
  [[nodiscard]] Fingerprint request_key(const Instance& instance,
                                        Algorithm algorithm,
                                        int max_out_degree) const;
  /// Key derivation from an already-computed instance fingerprint.
  [[nodiscard]] Fingerprint request_key(const Fingerprint& instance_fp,
                                        Algorithm algorithm,
                                        int max_out_degree) const;

  [[nodiscard]] CacheStats cache_stats() const;
  [[nodiscard]] const PlannerConfig& config() const { return config_; }

 private:
  /// plan_uncached plus tiered verification when config_.verify_plans is
  /// set; every cache miss goes through here exactly once.
  [[nodiscard]] PlanResponse plan_verified(const Instance& instance,
                                           Algorithm algorithm,
                                           int max_out_degree) const;

  PlannerConfig config_;
  obs::Hooks hooks_;
  std::unique_ptr<PlanCache> cache_;
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace bmp::engine
