// Sharded LRU cache of planned responses, keyed by request fingerprint.
// Shards are independent {mutex, LRU list, hash index} triples selected by
// key hash, so concurrent batch workers rarely contend on one lock. Each
// shard keeps hit/miss/eviction counters; stats() aggregates them.
//
// Values are shared_ptr<const PlanResponse>: a hit aliases the cached plan
// instead of copying the overlay, and an entry evicted mid-use stays alive
// for whoever still holds it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bmp/engine/fingerprint.hpp"
#include "bmp/engine/planner.hpp"

namespace bmp::engine {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t insertions = 0;
  std::size_t size = 0;      ///< entries currently resident
  std::size_t capacity = 0;  ///< total across shards

  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

inline constexpr std::size_t kPlanCacheShards = 16;  ///< planner's LRU shards

class PlanCache {
 public:
  /// `capacity` entries total, spread over `shards` independent LRUs (each
  /// gets ceil(capacity/shards)). capacity == 0 disables caching (every
  /// lookup misses, inserts are dropped).
  explicit PlanCache(std::size_t capacity,
                     std::size_t shards = kPlanCacheShards);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the cached plan and bumps it to most-recently-used, or nullptr
  /// on miss. Counts a hit/miss either way.
  [[nodiscard]] std::shared_ptr<const PlanResponse> lookup(const Fingerprint& key);

  /// Inserts (or refreshes) an entry, evicting the shard's LRU tail beyond
  /// capacity.
  void insert(const Fingerprint& key, std::shared_ptr<const PlanResponse> value);

  [[nodiscard]] CacheStats stats() const;
  [[nodiscard]] std::size_t size() const;
  void clear();

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::list<std::pair<Fingerprint, std::shared_ptr<const PlanResponse>>> lru;
    std::unordered_map<Fingerprint, decltype(lru)::iterator, FingerprintHasher>
        index;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t insertions = 0;
  };

  [[nodiscard]] Shard& shard_for(const Fingerprint& key);

  std::size_t per_shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace bmp::engine
