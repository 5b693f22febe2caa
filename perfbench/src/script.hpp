// ScriptBuilder — runtime event streams with exact per-type event counts.
//
// runtime::Scenario draws its churn as Poisson processes, so the number of
// leaves, joins and channel arrivals moves with the seed, and with it the
// op-class mix a percentile lands in. The benchmark workloads instead fix
// every count in their definition and let the seed draw only times inside
// fixed windows, node picks and bandwidths. Intents are recorded in any
// order and materialized in one time-ordered sweep that tracks the alive
// population exactly as the Runtime will (initial peers are ids 1..N,
// joiners take the next ids in event order).
#pragma once

#include <cstdint>
#include <vector>

#include "bmp/gen/distributions.hpp"
#include "bmp/runtime/scenario.hpp"
#include "bmp/util/rng.hpp"

namespace perfbench {

struct PeerClass {
  double share = 1.0;  ///< relative weight in the initial population
  double p_open = 0.5;
  bmp::gen::Dist dist = bmp::gen::Dist::kUnif100;
};

class ScriptBuilder {
 public:
  ScriptBuilder(std::uint64_t seed, double source_bandwidth, int peers,
                const std::vector<PeerClass>& classes);

  [[nodiscard]] bmp::util::Xoshiro256& rng() { return rng_; }

  /// `count` distinct initial peers that no leave or brownout ever picks
  /// (fault victims).
  std::vector<int> reserve(int count);

  void open_channel(double t, int channel, double weight, double fraction);
  /// `count` peers drawn from `peer_class` join in one event.
  void join(double t, int count, const PeerClass& peer_class);
  /// One uniformly chosen alive, unreserved peer leaves.
  void leave(double t);
  /// `fraction` of the alive, unreserved peers drop to `factor` of their
  /// effective capacity at `t`; the survivors are restored `duration` later.
  void brownout(double t, double duration, double fraction, double factor);

  /// `count` tick times over [begin, end) under the diurnal density
  /// 1 + amplitude * sin(2 pi t / period), stratified: tick k falls in the
  /// k-th of `count` equal-mass slices.
  std::vector<double> diurnal_times(int count, double begin, double end,
                                    double period, double amplitude);
  /// `joins` trues and `leaves` falses in seeded order.
  std::vector<bool> shuffled_mix(int joins, int leaves);

  /// Materializes the intents into a time-sorted, sequenced script.
  [[nodiscard]] bmp::runtime::ScenarioScript build();

 private:
  enum class Kind { kOpen, kJoin, kLeave, kBrownoutStart, kBrownoutEnd };
  struct Intent {
    double time = 0.0;
    std::uint64_t order = 0;
    Kind kind = Kind::kOpen;
    int channel = -1;
    double weight = 1.0;
    double fraction = 0.0;
    int count = 0;
    PeerClass joiners;
    double factor = 1.0;
    int brownout = -1;  ///< index into brownouts_
  };

  void push(Intent intent);
  bmp::runtime::NodeSpec draw_peer(const PeerClass& peer_class);
  int take_random();  ///< removes and returns a random pool member
  void drop(int id);  ///< removes `id` from the pool if present

  bmp::util::Xoshiro256 rng_;
  double source_bandwidth_;
  int peers_;
  std::vector<bmp::runtime::NodeSpec> initial_;
  std::vector<Intent> intents_;
  std::vector<bool> reserved_;  ///< by initial id
  int brownouts_ = 0;

  // Materialization state.
  std::vector<int> pool_;      ///< alive, unreserved ids
  std::vector<int> pool_at_;   ///< id -> index in pool_, -1 if absent
  std::vector<char> alive_;    ///< by id
  std::vector<std::vector<int>> browned_;
};

}  // namespace perfbench
