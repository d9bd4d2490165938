#include "query/result_cache.h"

#include <algorithm>
#include <cctype>
#include <functional>
#include <iterator>
#include <utility>

#include "pathexpr/tokenizer.h"

namespace dki {
namespace {

// Fixed per-entry bookkeeping charge: list node, hash map slot, vector
// headers. An estimate — the budget is a retention policy, not an allocator.
constexpr int64_t kEntryOverheadBytes = 96;

}  // namespace

std::string CanonicalizeQuery(std::string_view text) {
  // Without whitespace no two label/wildcard tokens can touch (the tokenizer
  // would have read them as one label), so re-joining the tokens below
  // would reproduce the text byte for byte.
  if (std::none_of(text.begin(), text.end(), [](char c) {
        return std::isspace(static_cast<unsigned char>(c)) != 0;
      })) {
    return std::string(text);
  }
  std::vector<Token> tokens;
  std::string error;
  if (!Tokenize(text, &tokens, &error)) return std::string(text);
  std::string out;
  out.reserve(text.size());
  bool after_word = false;  // the last token was a label or `_`
  for (const Token& t : tokens) {
    const bool word =
        t.kind == TokenKind::kLabel || t.kind == TokenKind::kWildcard;
    if (word && after_word) out += ' ';
    after_word = word;
    switch (t.kind) {
      case TokenKind::kLabel:
        out += t.text;
        break;
      case TokenKind::kWildcard:
        out += '_';
        break;
      case TokenKind::kDot:
        out += '.';
        break;
      case TokenKind::kDoubleSlash:
        out += "//";
        break;
      case TokenKind::kPipe:
        out += '|';
        break;
      case TokenKind::kStar:
        out += '*';
        break;
      case TokenKind::kPlus:
        out += '+';
        break;
      case TokenKind::kQuestion:
        out += '?';
        break;
      case TokenKind::kLParen:
        out += '(';
        break;
      case TokenKind::kRParen:
        out += ')';
        break;
      case TokenKind::kEnd:
        break;
    }
  }
  return out;
}

ResultCache::ResultCache(Options options) : options_(options) {}

ResultCache::Shard& ResultCache::ShardFor(const std::string& key) {
  return shards_[std::hash<std::string>{}(key) % kShards];
}

void ResultCache::EraseLocked(Shard* shard, LruList::iterator it) {
  shard->stats.bytes -= it->bytes;
  bytes_.fetch_sub(it->bytes, std::memory_order_relaxed);
  shard->by_key.erase(it->key);
  shard->lru.erase(it);
}

bool ResultCache::EvictOne() {
  for (int tried = 0; tried < kShards; ++tried) {
    Shard& shard =
        shards_[evict_cursor_.fetch_add(1, std::memory_order_relaxed) %
                kShards];
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.lru.empty()) continue;
    EraseLocked(&shard, std::prev(shard.lru.end()));
    ++shard.stats.evictions;
    return true;
  }
  return false;
}

bool ResultCache::Reserve(int64_t bytes) {
  int64_t total = bytes_.load(std::memory_order_relaxed);
  for (;;) {
    if (total + bytes <= options_.byte_budget) {
      if (bytes_.compare_exchange_weak(total, total + bytes,
                                       std::memory_order_relaxed)) {
        return true;
      }
      continue;  // `total` was reloaded by the failed exchange
    }
    if (!EvictOne()) return false;
    total = bytes_.load(std::memory_order_relaxed);
  }
}

bool ResultCache::TryGet(const std::string& key, uint64_t epoch,
                         std::vector<NodeId>* out) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.by_key.find(key);
  if (it == shard.by_key.end()) {
    ++shard.stats.misses;
    return false;
  }
  if (it->second->epoch != epoch) {
    if (it->second->epoch < epoch) {
      // The index mutated since this result was computed; the entry can
      // never become valid again (epochs are monotonic), so drop it now.
      EraseLocked(&shard, it->second);
      ++shard.stats.stale_drops;
    }
    ++shard.stats.misses;
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // now MRU
  *out = it->second->result;
  ++shard.stats.hits;
  return true;
}

void ResultCache::Put(const std::string& key, uint64_t epoch,
                      std::vector<NodeId> result) {
  Entry entry;
  entry.key = key;
  entry.epoch = epoch;
  entry.result = std::move(result);
  entry.bytes = kEntryOverheadBytes + static_cast<int64_t>(entry.key.size()) +
                static_cast<int64_t>(entry.result.size() * sizeof(NodeId));
  if (entry.bytes > options_.byte_budget) {
    // An entry that can never fit must be rejected up front: reserving its
    // bytes would drain every resident entry without retaining anything.
    oversized_rejects_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Reserving before inserting keeps the total within budget at every
  // instant and leaves the new entry out of reach of its own evictions.
  // A failed reservation (the budget is held by concurrent Puts) just
  // leaves the result uncached.
  if (!Reserve(entry.bytes)) return;
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.by_key.find(key);
  if (it != shard.by_key.end()) {
    if (it->second->epoch > epoch) {
      bytes_.fetch_sub(entry.bytes, std::memory_order_relaxed);
      return;
    }
    EraseLocked(&shard, it->second);
  }
  shard.stats.bytes += entry.bytes;
  shard.lru.push_front(std::move(entry));
  shard.by_key[shard.lru.front().key] = shard.lru.begin();
}

ResultCache::Stats ResultCache::stats() const {
  Stats s;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    s.hits += shard.stats.hits;
    s.misses += shard.stats.misses;
    s.evictions += shard.stats.evictions;
    s.stale_drops += shard.stats.stale_drops;
    s.entries += static_cast<int64_t>(shard.lru.size());
    s.bytes += shard.stats.bytes;
  }
  s.oversized_rejects = oversized_rejects_.load(std::memory_order_relaxed);
  return s;
}

void ResultCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    bytes_.fetch_sub(shard.stats.bytes, std::memory_order_relaxed);
    shard.stats.bytes = 0;
    shard.lru.clear();
    shard.by_key.clear();
  }
}

}  // namespace dki
