// Injector — compiles a FaultPlan into runtime::Event records and merges
// them into a built ScenarioScript. Merging is a stable re-sequence: the
// combined stream is sorted by (time, original order) and sequence numbers
// are reassigned 0..n-1, exactly how Scenario::build() stamps them, so a
// chaos script replays bit-identically and two injections of the same
// plan into the same script are byte-equal.
//
// random_plan() derives a bounded random FaultPlan from a single seed via
// util::Xoshiro256 — the fuzz tests draw ~200 of these and assert the
// runtime's invariants hold under every one of them.
#pragma once

#include <cstdint>
#include <vector>

#include "bmp/fault/fault.hpp"
#include "bmp/runtime/event.hpp"
#include "bmp/runtime/scenario.hpp"

namespace bmp::fault {

/// random_plan() draws corruption rates from [0.05, kMaxCorruptionRate].
inline constexpr double kMaxCorruptionRate = 0.5;

/// Bounds for random_plan(). Node ids are drawn from [1, num_nodes] (the
/// runtime's initial population; 0 — the global source — is never picked,
/// source failover is exercised at the Execution layer instead).
struct RandomPlanOptions {
  int num_nodes = 0;        ///< initial population size (required, > 0)
  double horizon = 10.0;    ///< faults land in [0.2, 0.9] * horizon
  int max_crashes = 3;
};

class Injector {
 public:
  /// Compiles the plan to a time-sorted vector of kFault events.
  [[nodiscard]] static std::vector<runtime::Event> compile(
      const FaultPlan& plan);

  /// Merges the compiled plan into `script.events` (stable by time, plan
  /// events after script events at equal timestamps) and reassigns every
  /// sequence number, mirroring Scenario::build().
  static void inject(runtime::ScenarioScript& script, const FaultPlan& plan);

  /// A bounded random plan, fully determined by `seed` and `options`.
  [[nodiscard]] static FaultPlan random_plan(std::uint64_t seed,
                                             const RandomPlanOptions& options);
};

}  // namespace bmp::fault
