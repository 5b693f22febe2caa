#include "script.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace perfbench {

using bmp::runtime::Event;
using bmp::runtime::EventType;
using bmp::runtime::NodeSpec;

ScriptBuilder::ScriptBuilder(std::uint64_t seed, double source_bandwidth,
                             int peers, const std::vector<PeerClass>& classes)
    : rng_(seed),
      source_bandwidth_(source_bandwidth),
      peers_(peers),
      reserved_(static_cast<std::size_t>(peers) + 1, false) {
  double total_share = 0.0;
  for (const PeerClass& c : classes) total_share += c.share;
  // Exact class counts: class k gets its rounded share, the last the rest.
  int assigned = 0;
  for (std::size_t k = 0; k < classes.size(); ++k) {
    const int count =
        k + 1 == classes.size()
            ? peers - assigned
            : static_cast<int>(std::lround(peers * classes[k].share / total_share));
    for (int i = 0; i < count; ++i) initial_.push_back(draw_peer(classes[k]));
    assigned += count;
  }
}

std::vector<int> ScriptBuilder::reserve(int count) {
  std::vector<int> free_ids;
  for (int id = 1; id <= peers_; ++id) {
    if (!reserved_[static_cast<std::size_t>(id)]) free_ids.push_back(id);
  }
  std::vector<int> picked;
  for (int k = 0; k < count && !free_ids.empty(); ++k) {
    const std::size_t at = rng_.below(free_ids.size());
    picked.push_back(free_ids[at]);
    reserved_[static_cast<std::size_t>(free_ids[at])] = true;
    free_ids[at] = free_ids.back();
    free_ids.pop_back();
  }
  return picked;
}

void ScriptBuilder::push(Intent intent) {
  intent.order = intents_.size();
  intents_.push_back(intent);
}

void ScriptBuilder::open_channel(double t, int channel, double weight,
                                 double fraction) {
  Intent intent;
  intent.time = t;
  intent.kind = Kind::kOpen;
  intent.channel = channel;
  intent.weight = weight;
  intent.fraction = fraction;
  push(intent);
}

void ScriptBuilder::join(double t, int count, const PeerClass& peer_class) {
  Intent intent;
  intent.time = t;
  intent.kind = Kind::kJoin;
  intent.count = count;
  intent.joiners = peer_class;
  push(intent);
}

void ScriptBuilder::leave(double t) {
  Intent intent;
  intent.time = t;
  intent.kind = Kind::kLeave;
  push(intent);
}

void ScriptBuilder::brownout(double t, double duration, double fraction,
                             double factor) {
  Intent intent;
  intent.time = t;
  intent.kind = Kind::kBrownoutStart;
  intent.fraction = fraction;
  intent.factor = factor;
  intent.brownout = brownouts_;
  push(intent);
  intent.time = t + duration;
  intent.kind = Kind::kBrownoutEnd;
  push(intent);
  ++brownouts_;
}

std::vector<double> ScriptBuilder::diurnal_times(int count, double begin,
                                                 double end, double period,
                                                 double amplitude) {
  // Tabulate the cumulative density on a fine grid and invert it.
  constexpr int kGrid = 4096;
  constexpr double kTwoPi = 6.283185307179586;
  std::vector<double> cdf(kGrid + 1, 0.0);
  const double step = (end - begin) / kGrid;
  for (int g = 1; g <= kGrid; ++g) {
    const double t = begin + (g - 0.5) * step;
    cdf[g] = cdf[g - 1] + 1.0 + amplitude * std::sin(kTwoPi * t / period);
  }
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    const double mass = cdf[kGrid] * (k + rng_.uniform()) / count;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), mass);
    const int g = std::max(1, static_cast<int>(it - cdf.begin()));
    const double within = (mass - cdf[g - 1]) / (cdf[g] - cdf[g - 1]);
    times.push_back(begin + (g - 1 + within) * step);
  }
  return times;
}

std::vector<bool> ScriptBuilder::shuffled_mix(int joins, int leaves) {
  std::vector<bool> mix(static_cast<std::size_t>(joins), true);
  mix.insert(mix.end(), static_cast<std::size_t>(leaves), false);
  for (std::size_t i = mix.size(); i > 1; --i) {
    const std::size_t j = rng_.below(i);
    const bool tmp = mix[i - 1];
    mix[i - 1] = mix[j];
    mix[j] = tmp;
  }
  return mix;
}

NodeSpec ScriptBuilder::draw_peer(const PeerClass& peer_class) {
  NodeSpec spec;
  spec.guarded = rng_.uniform() >= peer_class.p_open;
  spec.bandwidth = bmp::gen::sample(peer_class.dist, rng_);
  return spec;
}

int ScriptBuilder::take_random() {
  if (pool_.empty()) throw std::logic_error("ScriptBuilder: no peer left to pick");
  const int id = pool_[rng_.below(pool_.size())];
  drop(id);
  return id;
}

void ScriptBuilder::drop(int id) {
  const int at = pool_at_[static_cast<std::size_t>(id)];
  if (at < 0) return;
  const int last = pool_.back();
  pool_[static_cast<std::size_t>(at)] = last;
  pool_at_[static_cast<std::size_t>(last)] = at;
  pool_.pop_back();
  pool_at_[static_cast<std::size_t>(id)] = -1;
}

bmp::runtime::ScenarioScript ScriptBuilder::build() {
  std::sort(intents_.begin(), intents_.end(), [](const Intent& a, const Intent& b) {
    return a.time != b.time ? a.time < b.time : a.order < b.order;
  });
  pool_.clear();
  pool_at_.assign(static_cast<std::size_t>(peers_) + 1, -1);
  alive_.assign(static_cast<std::size_t>(peers_) + 1, 1);
  alive_[0] = 0;  // the source is never picked
  for (int id = 1; id <= peers_; ++id) {
    if (reserved_[static_cast<std::size_t>(id)]) continue;
    pool_at_[static_cast<std::size_t>(id)] = static_cast<int>(pool_.size());
    pool_.push_back(id);
  }
  browned_.assign(static_cast<std::size_t>(brownouts_), {});

  bmp::runtime::ScenarioScript script;
  script.source_bandwidth = source_bandwidth_;
  script.initial_peers = initial_;
  for (const Intent& intent : intents_) {
    Event event;
    event.time = intent.time;
    switch (intent.kind) {
      case Kind::kOpen:
        event.type = EventType::kChannelOpen;
        event.channel = intent.channel;
        event.weight = intent.weight;
        event.fraction = intent.fraction;
        break;
      case Kind::kJoin: {
        event.type = EventType::kNodeJoin;
        for (int k = 0; k < intent.count; ++k) {
          event.joins.push_back(draw_peer(intent.joiners));
          const int id = static_cast<int>(alive_.size());
          alive_.push_back(1);
          pool_at_.push_back(static_cast<int>(pool_.size()));
          pool_.push_back(id);
        }
        break;
      }
      case Kind::kLeave: {
        event.type = EventType::kNodeLeave;
        const int id = take_random();
        alive_[static_cast<std::size_t>(id)] = 0;
        event.leaves.push_back(id);
        break;
      }
      case Kind::kBrownoutStart: {
        event.type = EventType::kDegrade;
        // Picked peers stay in the pool: a browned-out peer may still leave.
        std::vector<int> ids = pool_;
        const std::size_t count = static_cast<std::size_t>(
            intent.fraction * static_cast<double>(ids.size()));
        for (std::size_t k = 0; k < count; ++k) {
          std::swap(ids[k], ids[k + rng_.below(ids.size() - k)]);
        }
        ids.resize(count);
        std::sort(ids.begin(), ids.end());
        for (const int id : ids) {
          bmp::runtime::Degradation d;
          d.node = id;
          d.set_factor = true;
          d.capacity_factor = intent.factor;
          event.degrades.push_back(d);
        }
        browned_[static_cast<std::size_t>(intent.brownout)] = std::move(ids);
        break;
      }
      case Kind::kBrownoutEnd:
        event.type = EventType::kDegrade;
        for (const int id : browned_[static_cast<std::size_t>(intent.brownout)]) {
          if (!alive_[static_cast<std::size_t>(id)]) continue;
          bmp::runtime::Degradation d;
          d.node = id;
          d.set_factor = true;
          d.capacity_factor = 1.0;
          event.degrades.push_back(d);
        }
        break;
    }
    event.sequence = script.events.size();
    script.events.push_back(std::move(event));
  }
  return script;
}

}  // namespace perfbench
