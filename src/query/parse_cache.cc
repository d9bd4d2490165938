#include "query/parse_cache.h"

#include <optional>

namespace dki {

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
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(text);
    if (it != index_.end() && it->second->second.label_version ==
                                  label_version) {
      hits_.Increment();
      lru_.splice(lru_.begin(), lru_, it->second);
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
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(text);
  if (it == index_.end()) {
    lru_.emplace_front(text, std::move(fresh));
    index_.emplace(text, lru_.begin());
    // Evict least-recently-used entries one at a time — never the entry
    // just inserted (it sits at the front and max_entries_ >= 2).
    while (lru_.size() > max_entries_) {
      evictions_.Increment();
      index_.erase(lru_.back().first);
      lru_.pop_back();
    }
    return answer(lru_.front().second);
  }
  Entry& entry = it->second->second;
  lru_.splice(lru_.begin(), lru_, it->second);
  // A concurrent miss on the same text inserted first: its parse wins.
  if (entry.label_version == label_version) return answer(entry);
  // Stale label version: replace in place (the entry keeps its LRU slot).
  entry = std::move(fresh);
  return answer(entry);
}

}  // namespace dki
