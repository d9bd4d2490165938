#ifndef DKINDEX_QUERY_RESULT_CACHE_H_
#define DKINDEX_QUERY_RESULT_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "graph/data_graph.h"

namespace dki {

// Rewrites a path expression to a canonical spelling so that textual
// variants of the same query ("a.b", "a . b"; "(a).b" stays distinct — only
// token spacing is normalized) share one cache entry: the token stream is
// re-joined without whitespace, except for one space between two adjacent
// label/wildcard tokens ("a b" -> "a b", never "ab"). The spelling is
// injective on token streams: Tokenize(CanonicalizeQuery(t)) yields t's
// tokens, so a cache hit on the canonical key is an answer to the same
// query. Whitespace-free text is already canonical and is returned without
// tokenizing. Returns `text` unchanged when it does not tokenize (such
// strings never parse into a PathExpression either).
std::string CanonicalizeQuery(std::string_view text);

// An LRU cache of query results for ONE index graph, invalidated by the
// index's update epoch (IndexGraph::epoch): every entry is stamped with the
// epoch at evaluation time, and a lookup at a newer epoch drops the entry
// ("stale drop") and reports a miss. Repeated-traffic serving therefore
// reuses results for free between updates, and can never return a
// pre-update answer after one — Section 5's update operations all bump the
// epoch (see DkIndex::epoch).
//
// Capacity is byte-budgeted: each entry is charged its key size, its result
// vector's bytes and a fixed bookkeeping overhead. The cache is split into
// kShards cache-line-aligned shards by key hash, each with its own mutex,
// LRU list and map, so concurrent readers of different keys never share a
// lock. The budget is global: a Put first reserves its bytes against one
// atomic total, evicting shard LRU tails round-robin (one shard lock at a
// time) until they fit, so the total never exceeds the budget and a Put
// never evicts the entry it inserts. Eviction order is therefore LRU within
// a shard and round-robin across shards. The cache only stores answers: the
// caller evaluates a miss (QueryServer on its snapshot's FrozenView) and
// Puts the result.
//
// One ResultCache instance must serve exactly one index: the key does not
// encode the index identity, only the query text, the validate flag and the
// epoch.
class ResultCache {
 public:
  struct Options {
    // Total bytes of cached keys+results to retain (approximate).
    int64_t byte_budget = 8 * 1024 * 1024;
  };

  ResultCache() : ResultCache(Options()) {}
  explicit ResultCache(Options options);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  // `key` is CanonicalizeQuery output plus any caller suffix; `epoch` the
  // index epoch the result belongs to. A lookup at an older epoch than the
  // resident entry misses without dropping it, and a Put never replaces a
  // resident entry of a newer epoch: a reader holding an old snapshot
  // cannot evict the answers of the current one.
  bool TryGet(const std::string& key, uint64_t epoch,
              std::vector<NodeId>* out);
  void Put(const std::string& key, uint64_t epoch,
           std::vector<NodeId> result);

  void Clear();

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    int64_t stale_drops = 0;
    // Entries larger than the whole byte budget, rejected by Put without
    // disturbing the resident entries.
    int64_t oversized_rejects = 0;
    int64_t entries = 0;
    int64_t bytes = 0;
  };
  // Sums the shards, locking one at a time.
  Stats stats() const;

  static constexpr int kShards = 16;

 private:
  struct Entry {
    std::string key;
    uint64_t epoch = 0;
    std::vector<NodeId> result;
    int64_t bytes = 0;
  };
  using LruList = std::list<Entry>;

  struct alignas(64) Shard {
    mutable std::mutex mutex;
    LruList lru;  // front = most recently used
    std::unordered_map<std::string, LruList::iterator> by_key;
    // entries and oversized_rejects stay 0 here; stats() fills them in.
    Stats stats;  // bytes = this shard's resident bytes
  };

  Shard& ShardFor(const std::string& key);
  // Requires `shard->mutex` held.
  void EraseLocked(Shard* shard, LruList::iterator it);
  // Adds `bytes` to the global total, evicting until they fit. False when
  // nothing is left to evict because concurrent Puts hold the budget.
  bool Reserve(int64_t bytes);
  // Evicts the LRU tail of the next non-empty shard in round-robin order.
  bool EvictOne();

  const Options options_;
  std::array<Shard, kShards> shards_;
  // Resident bytes of every shard plus the reservations of in-flight Puts;
  // never above options_.byte_budget. Written only by Put, eviction and
  // Clear, so cache hits never touch it.
  std::atomic<int64_t> bytes_{0};
  std::atomic<uint32_t> evict_cursor_{0};
  std::atomic<int64_t> oversized_rejects_{0};
};

}  // namespace dki

#endif  // DKINDEX_QUERY_RESULT_CACHE_H_
