#include "query/parse_cache.h"

#include <algorithm>
#include <functional>
#include <optional>

namespace dki {

ParseCache::ParseCache(const std::string& metric_prefix, size_t max_entries)
    : num_shards_(std::clamp<size_t>(max_entries, 1, kShards)),
      shard_capacity_(std::max<size_t>(max_entries, 1) / num_shards_),
      hits_(MetricsRegistry::Global().GetCounter(metric_prefix + ".hits")),
      misses_(MetricsRegistry::Global().GetCounter(metric_prefix + ".misses")),
      evictions_(
          MetricsRegistry::Global().GetCounter(metric_prefix + ".evictions")) {}

std::shared_ptr<const PathExpression> ParseCache::Get(
    const std::string& text, const LabelTable& labels,
    std::string* parse_error) {
  const int64_t label_version = labels.size();
  auto answer = [parse_error](const Entry& entry) {
    if (entry.expr == nullptr && parse_error != nullptr) {
      *parse_error = entry.error;
    }
    return entry.expr;
  };
  Shard& shard = shards_[std::hash<std::string>{}(text) % num_shards_];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(text);
    if (it != shard.index.end() &&
        it->second->second.label_version == label_version) {
      hits_.Increment();
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return answer(it->second->second);
    }
  }
  // Parse outside the lock, so readers of other texts never wait on it.
  misses_.Increment();
  Entry fresh;
  fresh.label_version = label_version;
  std::optional<PathExpression> parsed =
      PathExpression::Parse(text, labels, &fresh.error);
  if (parsed.has_value()) {
    fresh.expr = std::make_shared<const PathExpression>(std::move(*parsed));
  }
  // Declared before the lock, so an expression dropped below is destroyed
  // after the lock is released.
  std::shared_ptr<const PathExpression> dropped;
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(text);
  if (it == shard.index.end()) {
    shard.lru.emplace_front(text, std::move(fresh));
    shard.index.emplace(text, shard.lru.begin());
    // One insert overflows by at most one entry; the new entry sits at the
    // front and shard_capacity_ >= 1, so it is never the one evicted.
    if (shard.lru.size() > shard_capacity_) {
      evictions_.Increment();
      dropped = std::move(shard.lru.back().second.expr);
      shard.index.erase(shard.lru.back().first);
      shard.lru.pop_back();
    }
    return answer(shard.lru.front().second);
  }
  Entry& entry = it->second->second;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  // A concurrent miss on the same text inserted first: its parse wins.
  if (entry.label_version == label_version) return answer(entry);
  // Stale label version: replace in place (the entry keeps its LRU slot).
  dropped = std::move(entry.expr);
  entry = std::move(fresh);
  return answer(entry);
}

size_t ParseCache::size() const {
  size_t total = 0;
  for (size_t i = 0; i < num_shards_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    total += shards_[i].lru.size();
  }
  return total;
}

}  // namespace dki
