#ifndef DKINDEX_QUERY_PARSE_CACHE_H_
#define DKINDEX_QUERY_PARSE_CACHE_H_

#include <array>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/metrics.h"
#include "graph/label_table.h"
#include "pathexpr/path_expression.h"

namespace dki {

// A thread-safe LRU cache of compiled path expressions, keyed by query
// text, for a read path with no result cache ahead of it:
// ShardedQueryServer's scatter-gather pruning parses every request through
// one. (QueryServer keeps none: it parses only result-cache misses, which
// rarely repeat before eviction.) Like ResultCache it is split into kShards
// cache-line-aligned shards by text hash, each with its own mutex, LRU list
// and map, so concurrent misses on different texts rarely share a lock.
// Each shard holds max_entries / shards entries (shards = min(kShards,
// max_entries)) and evicts one at a time from its LRU tail, so the cache
// never holds more than `max_entries`; eviction is LRU within a shard.
//
// The compiled expression is shared_ptr-held, so an eviction can never
// invalidate a pointer a concurrent caller already collected; an evicted or
// replaced expression is destroyed after the shard lock is released. A
// cached parse is revalidated against the label-table SIZE — sound within
// one serving pipeline because its label table only ever appends, so equal
// size means identical contents. Parse FAILURES are cached too (expr ==
// null + message): a hot mistyped query costs one map lookup, not a
// re-parse.
//
// Counters (registered under `metric_prefix`):
//   <prefix>.hits / <prefix>.misses / <prefix>.evictions
class ParseCache {
 public:
  static constexpr size_t kShards = 16;

  explicit ParseCache(const std::string& metric_prefix,
                      size_t max_entries = 4096);

  ParseCache(const ParseCache&) = delete;
  ParseCache& operator=(const ParseCache&) = delete;

  // The cached (or freshly parsed) expression for `text` compiled against
  // `labels`, or null with *parse_error set (when given) if the text does
  // not parse. Entries compiled against an older label-table size are
  // re-parsed in place (keeping their LRU slot). A miss parses outside the
  // lock; when concurrent misses on one text race, the first insert wins
  // and every caller gets an equal expression. Each call counts as exactly
  // one hit or one miss.
  std::shared_ptr<const PathExpression> Get(const std::string& text,
                                            const LabelTable& labels,
                                            std::string* parse_error);

  // Resident entries, summed over the shards one lock at a time.
  size_t size() const;

 private:
  struct Entry {
    int64_t label_version = -1;
    std::shared_ptr<const PathExpression> expr;  // null on parse error
    std::string error;
  };
  using LruList = std::list<std::pair<std::string, Entry>>;

  struct alignas(64) Shard {
    mutable std::mutex mu;
    LruList lru;  // front = most recently used
    std::unordered_map<std::string, LruList::iterator> index;
  };

  const size_t num_shards_;
  const size_t shard_capacity_;
  Counter& hits_;
  Counter& misses_;
  Counter& evictions_;
  std::array<Shard, kShards> shards_;
};

}  // namespace dki

#endif  // DKINDEX_QUERY_PARSE_CACHE_H_
