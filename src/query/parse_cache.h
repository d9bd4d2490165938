#ifndef DKINDEX_QUERY_PARSE_CACHE_H_
#define DKINDEX_QUERY_PARSE_CACHE_H_

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
// text, shared by every read path that parses user queries (QueryServer's
// single-query and batch paths, ShardedQueryServer's scatter-gather
// pruning). Entries are evicted one at a time from the LRU tail once
// `max_entries` is reached — a wholesale clear() used to stall every
// in-flight working set the moment the (max+1)-th distinct text arrived,
// the same bug class as the ResultCache full-wipe fixed in PR 3.
//
// The compiled expression is shared_ptr-held, so an eviction can never
// invalidate a pointer a concurrent caller already collected. A cached
// parse is revalidated against the label-table SIZE — sound within one
// serving pipeline because its label table only ever appends, so equal
// size means identical contents. Parse FAILURES are cached too (expr ==
// null + message): a hot mistyped query costs one map lookup, not a
// re-parse.
//
// Counters (registered under `metric_prefix`):
//   <prefix>.hits / <prefix>.misses / <prefix>.evictions
class ParseCache {
 public:
  explicit ParseCache(const std::string& metric_prefix,
                      size_t max_entries = 4096)
      : max_entries_(max_entries < 2 ? 2 : max_entries),
        hits_(MetricsRegistry::Global().GetCounter(metric_prefix + ".hits")),
        misses_(
            MetricsRegistry::Global().GetCounter(metric_prefix + ".misses")),
        evictions_(MetricsRegistry::Global().GetCounter(metric_prefix +
                                                        ".evictions")) {}

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

 private:
  struct Entry {
    int64_t label_version = -1;
    std::shared_ptr<const PathExpression> expr;  // null on parse error
    std::string error;
  };
  using LruList = std::list<std::pair<std::string, Entry>>;

  const size_t max_entries_;
  Counter& hits_;
  Counter& misses_;
  Counter& evictions_;

  std::mutex mu_;
  LruList lru_;  // front = most recently used
  std::unordered_map<std::string, LruList::iterator> index_;
};

}  // namespace dki

#endif  // DKINDEX_QUERY_PARSE_CACHE_H_
