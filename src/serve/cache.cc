#include "src/serve/cache.h"

#include <algorithm>
#include <utility>

namespace smgcn {
namespace serve {

namespace {
/// Shards only pay once each holds enough entries that per-shard LRU order
/// tracks global LRU order; below that, keys that collide in one shard
/// evict each other while the rest of the budget sits idle.
constexpr std::size_t kMaxShards = 8;
constexpr std::size_t kMinEntriesPerShard = 64;
}  // namespace

ShardedTopKCache::ShardedTopKCache(std::size_t capacity,
                                   obs::Registry* registry,
                                   std::string prefix) {
  capacity = std::max<std::size_t>(capacity, 1);
  const std::size_t num_shards = std::clamp<std::size_t>(
      capacity / kMinEntriesPerShard, 1, kMaxShards);
  // Never let sharding shrink the requested budget to zero per shard.
  per_shard_capacity_ = (capacity + num_shards - 1) / num_shards;
  shards_ = std::vector<Shard>(num_shards);

  obs::Registry& reg =
      registry != nullptr ? *registry : obs::Registry::Global();
  prefix_ = prefix.empty() ? reg.NextScopeId("serve.cache") : std::move(prefix);
  hits_ = reg.GetCounter(prefix_ + "hits");
  misses_ = reg.GetCounter(prefix_ + "misses");
  evictions_ = reg.GetCounter(prefix_ + "evictions");
  size_ = reg.GetGauge(prefix_ + "size");
  capacity_ = reg.GetGauge(prefix_ + "capacity");
  capacity_->Set(static_cast<double>(per_shard_capacity_ * num_shards));
}

bool ShardedTopKCache::Lookup(std::uint64_t key,
                              const std::vector<int>& symptom_ids,
                              std::size_t k, std::vector<std::size_t>* top_k) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end() || it->second.k != k ||
      it->second.symptom_ids != symptom_ids) {
    misses_->Increment();
    return false;
  }
  hits_->Increment();
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
  *top_k = it->second.top_k;
  return true;
}

void ShardedTopKCache::Insert(std::uint64_t key, std::vector<int> symptom_ids,
                              std::size_t k, std::vector<std::size_t> top_k) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    // Overwrite (covers hash collisions and changed k) and refresh recency.
    it->second.symptom_ids = std::move(symptom_ids);
    it->second.k = k;
    it->second.top_k = std::move(top_k);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
    return;
  }
  if (shard.entries.size() >= per_shard_capacity_) {
    const std::uint64_t victim = shard.lru.back();
    shard.lru.pop_back();
    shard.entries.erase(victim);
    evictions_->Increment();
  } else {
    size_->Add(1.0);
  }
  shard.lru.push_front(key);
  Entry entry;
  entry.symptom_ids = std::move(symptom_ids);
  entry.k = k;
  entry.top_k = std::move(top_k);
  entry.lru_it = shard.lru.begin();
  shard.entries.emplace(key, std::move(entry));
}

void ShardedTopKCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    size_->Add(-static_cast<double>(shard.entries.size()));
    shard.entries.clear();
    shard.lru.clear();
  }
}

}  // namespace serve
}  // namespace smgcn
