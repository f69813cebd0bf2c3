// Sharded LRU cache over canonical query keys, holding top-k herb results.
//
// Keys are the 64-bit canonical query hashes (the serving engine mixes in
// the requested k and the snapshot salt); each entry also stores the
// canonical id list and k so a hash collision reads as a miss instead of
// serving another query's herbs. Sharding keeps the lock fine-grained under
// concurrent serving traffic; the shard count is derived from the capacity,
// so a small cache is one exact LRU instead of shards too small to hold
// the keys that happen to collide in them.
//
// Effectiveness counters are smgcn::obs registry instruments — by default
// under a unique auto-allocated `serve.cacheN.` scope, or under whatever
// scope the owner passes in (the serving engine uses
// `serve.engineN.cache.`):
//
//   <prefix>hits       counter
//   <prefix>misses     counter
//   <prefix>evictions  counter
//   <prefix>size       gauge (live entry count)
//   <prefix>capacity   gauge
//
// These instruments are the cache's only metrics view; readers take the
// hit ratio from hits / (hits + misses).
#ifndef SMGCN_SERVE_CACHE_H_
#define SMGCN_SERVE_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/registry.h"

namespace smgcn {
namespace serve {

/// Thread-safe sharded LRU cache: canonical query key -> top-k herb ids.
class ShardedTopKCache {
 public:
  /// `capacity` is the total entry budget (clamped to at least 1), split
  /// evenly across up to 8 shards of at least 64 entries each: 8 x 512 at
  /// the engine's default 4096, one shard below 128. Counters are created
  /// in `registry` (the global registry when null) under `prefix` (a
  /// unique "serve.cacheN." scope when empty).
  explicit ShardedTopKCache(std::size_t capacity,
                            obs::Registry* registry = nullptr,
                            std::string prefix = {});

  /// Returns true and fills `*top_k` when `key` holds a result for exactly
  /// this id list and k. Counts a hit or miss and refreshes recency.
  bool Lookup(std::uint64_t key, const std::vector<int>& symptom_ids,
              std::size_t k, std::vector<std::size_t>* top_k);

  /// Inserts (or overwrites) the result for `key`, evicting the shard's
  /// least-recently-used entry when full.
  void Insert(std::uint64_t key, std::vector<int> symptom_ids, std::size_t k,
              std::vector<std::size_t> top_k);

  /// Drops every entry (counters are retained).
  void Clear();

  std::size_t num_shards() const { return shards_.size(); }

  /// Registry scope the counters live under, e.g. "serve.cache0.".
  const std::string& obs_prefix() const { return prefix_; }

 private:
  struct Entry {
    std::vector<int> symptom_ids;
    std::size_t k = 0;
    std::vector<std::size_t> top_k;
    std::list<std::uint64_t>::iterator lru_it;
  };

  struct Shard {
    std::mutex mu;
    std::unordered_map<std::uint64_t, Entry> entries;
    std::list<std::uint64_t> lru;  // front = most recent
  };

  Shard& ShardFor(std::uint64_t key) { return shards_[key % shards_.size()]; }

  std::size_t per_shard_capacity_;
  std::vector<Shard> shards_;
  std::string prefix_;
  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* evictions_;
  obs::Gauge* size_;
  obs::Gauge* capacity_;
};

}  // namespace serve
}  // namespace smgcn

#endif  // SMGCN_SERVE_CACHE_H_
