#include "bmp/fault/injector.hpp"

#include <algorithm>
#include <utility>

#include "bmp/util/rng.hpp"

namespace bmp::fault {

namespace {

/// Fixed bounds of random_plan(): at most this many faults of each kind.
constexpr int kMaxPartitions = 1;
constexpr int kMaxCorruptions = 2;
constexpr int kMaxBlackouts = 2;
constexpr int kMaxPlannerOutages = 1;

runtime::Event fault_event(double time, runtime::FaultAction action) {
  runtime::Event event;
  event.type = runtime::EventType::kFault;
  event.time = time;
  event.faults.push_back(std::move(action));
  return event;
}

}  // namespace

std::vector<runtime::Event> Injector::compile(const FaultPlan& plan) {
  using Kind = runtime::FaultAction::Kind;
  std::vector<runtime::Event> events;

  for (const CrashSpec& crash : plan.crashes) {
    runtime::FaultAction action;
    action.kind = Kind::kCrash;
    action.node = crash.node;
    events.push_back(fault_event(crash.time, std::move(action)));
  }
  // Each partition gets its own group id so overlapping partitions stay
  // distinguishable; a heal collapses *all* groups (bisections heal whole).
  int next_group = 1;
  for (const PartitionSpec& partition : plan.partitions) {
    runtime::FaultAction start;
    start.kind = Kind::kPartitionStart;
    start.group = next_group++;
    start.nodes = partition.group_b;
    events.push_back(fault_event(partition.time, std::move(start)));
    if (partition.heal_time >= 0.0) {
      runtime::FaultAction heal;
      heal.kind = Kind::kPartitionHeal;
      events.push_back(fault_event(partition.heal_time, std::move(heal)));
    }
  }
  for (const CorruptionSpec& corruption : plan.corruptions) {
    runtime::FaultAction start;
    start.kind = Kind::kCorruptStart;
    start.node = corruption.node;
    start.rate = corruption.rate;
    events.push_back(fault_event(corruption.time, std::move(start)));
    if (corruption.end_time >= 0.0) {
      runtime::FaultAction end;
      end.kind = Kind::kCorruptEnd;
      end.node = corruption.node;
      events.push_back(fault_event(corruption.end_time, std::move(end)));
    }
  }
  for (const BlackoutSpec& blackout : plan.blackouts) {
    runtime::FaultAction start;
    start.kind = Kind::kBlackoutStart;
    start.nodes = blackout.nodes;
    events.push_back(fault_event(blackout.time, std::move(start)));
    if (blackout.end_time >= 0.0) {
      runtime::FaultAction end;
      end.kind = Kind::kBlackoutEnd;
      end.nodes = blackout.nodes;
      events.push_back(fault_event(blackout.end_time, std::move(end)));
    }
  }
  for (const PlannerOutageSpec& outage : plan.planner_outages) {
    runtime::FaultAction start;
    start.kind = Kind::kPlannerOutageStart;
    events.push_back(fault_event(outage.time, std::move(start)));
    if (outage.end_time >= 0.0) {
      runtime::FaultAction end;
      end.kind = Kind::kPlannerOutageEnd;
      events.push_back(fault_event(outage.end_time, std::move(end)));
    }
  }

  std::stable_sort(events.begin(), events.end(),
                   [](const runtime::Event& a, const runtime::Event& b) {
                     return a.time < b.time;
                   });
  return events;
}

void Injector::inject(runtime::ScenarioScript& script, const FaultPlan& plan) {
  std::vector<runtime::Event> faults = compile(plan);
  if (faults.empty()) return;
  // Stable merge by time: at equal timestamps script events keep priority
  // (population changes land before the fault that targets them), fault
  // events keep plan order among themselves.
  std::vector<runtime::Event> merged;
  merged.reserve(script.events.size() + faults.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < script.events.size() && j < faults.size()) {
    if (faults[j].time < script.events[i].time) {
      merged.push_back(std::move(faults[j++]));
    } else {
      merged.push_back(std::move(script.events[i++]));
    }
  }
  while (i < script.events.size()) merged.push_back(std::move(script.events[i++]));
  while (j < faults.size()) merged.push_back(std::move(faults[j++]));
  // Re-stamp sequences exactly like Scenario::build(): position order.
  for (std::size_t k = 0; k < merged.size(); ++k) {
    merged[k].sequence = k;
  }
  script.events = std::move(merged);
}

FaultPlan Injector::random_plan(std::uint64_t seed,
                                const RandomPlanOptions& options) {
  FaultPlan plan;
  if (options.num_nodes <= 0) return plan;
  util::Xoshiro256 rng(seed);
  const auto pick_node = [&] {
    return 1 + static_cast<int>(
                   rng.below(static_cast<std::uint64_t>(options.num_nodes)));
  };
  const auto pick_time = [&] {
    return rng.uniform(0.2 * options.horizon, 0.9 * options.horizon);
  };

  const int crashes =
      static_cast<int>(rng.below(options.max_crashes + 1));
  for (int k = 0; k < crashes; ++k) {
    plan.crashes.push_back({pick_time(), pick_node()});
  }
  const int partitions = static_cast<int>(rng.below(kMaxPartitions + 1));
  for (int k = 0; k < partitions; ++k) {
    PartitionSpec spec;
    spec.time = pick_time();
    spec.heal_time = spec.time + rng.uniform(0.05, 0.25) * options.horizon;
    for (int node = 1; node <= options.num_nodes; ++node) {
      if (rng.uniform() < 0.2) spec.group_b.push_back(node);
    }
    if (!spec.group_b.empty()) plan.partitions.push_back(std::move(spec));
  }
  const int corruptions = static_cast<int>(rng.below(kMaxCorruptions + 1));
  for (int k = 0; k < corruptions; ++k) {
    CorruptionSpec spec;
    spec.time = pick_time();
    spec.end_time = spec.time + rng.uniform(0.05, 0.3) * options.horizon;
    spec.node = pick_node();
    spec.rate = rng.uniform(0.05, kMaxCorruptionRate);
    plan.corruptions.push_back(spec);
  }
  const int blackouts = static_cast<int>(rng.below(kMaxBlackouts + 1));
  for (int k = 0; k < blackouts; ++k) {
    BlackoutSpec spec;
    spec.time = pick_time();
    spec.end_time = spec.time + rng.uniform(0.05, 0.3) * options.horizon;
    for (int node = 1; node <= options.num_nodes; ++node) {
      if (rng.uniform() < 0.15) spec.nodes.push_back(node);
    }
    if (!spec.nodes.empty()) plan.blackouts.push_back(std::move(spec));
  }
  const int outages = static_cast<int>(rng.below(kMaxPlannerOutages + 1));
  for (int k = 0; k < outages; ++k) {
    PlannerOutageSpec spec;
    spec.time = pick_time();
    spec.end_time = spec.time + rng.uniform(0.05, 0.2) * options.horizon;
    plan.planner_outages.push_back(spec);
  }
  return plan;
}

}  // namespace bmp::fault
