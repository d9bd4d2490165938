// ParseCache (query/parse_cache.h): per-shard LRU eviction, label-version
// revalidation, cached parse failures, and concurrent use from many
// threads (this suite runs under TSan in CI).

#include "query/parse_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "tests/test_util.h"

namespace dki {
namespace {

Counter& TestCounter(const std::string& name) {
  Counter& c = MetricsRegistry::Global().GetCounter(name);
  c.Reset();
  return c;
}

TEST(ParseCacheTest, HotEntrySurvivesColdCycling) {
  // The regression this guards: the old cache dropped EVERYTHING when it
  // hit its cap, so a cycling cold stream forced the hot query to re-parse
  // once per wipe. With per-entry LRU eviction the hot query — touched
  // every iteration — parses exactly once, and total re-parses equal the
  // distinct texts seen: misses are O(evictions), not O(traffic).
  Counter& hits = TestCounter("test.parse_cache.cycling.hits");
  Counter& misses = TestCounter("test.parse_cache.cycling.misses");
  Counter& evictions = TestCounter("test.parse_cache.cycling.evictions");

  LabelTable labels;
  constexpr size_t kCap = 64;
  ParseCache cache("test.parse_cache.cycling", kCap);
  const std::string hot = "movieDB.director.movie";
  const int kCold = 200;  // distinct cold texts, far above capacity
  for (int i = 0; i < kCold; ++i) {
    ASSERT_NE(cache.Get(hot, labels, nullptr), nullptr);
    ASSERT_NE(cache.Get("cold" + std::to_string(i), labels, nullptr),
              nullptr);
  }
  EXPECT_EQ(misses.value(), kCold + 1);  // each distinct text parsed once
  EXPECT_EQ(hits.value(), kCold - 1);    // every later hot access hits
  EXPECT_EQ(evictions.value(), kCold + 1 - static_cast<int64_t>(kCap));
}

TEST(ParseCacheTest, StaleLabelVersionReparsesInPlace) {
  Counter& misses = TestCounter("test.parse_cache.stale.misses");
  Counter& evictions = TestCounter("test.parse_cache.stale.evictions");
  LabelTable labels;
  ParseCache cache("test.parse_cache.stale", 64);
  auto first = cache.Get("studio.film", labels, nullptr);
  ASSERT_NE(first, nullptr);
  // Same label version: the exact compiled object comes back.
  EXPECT_EQ(cache.Get("studio.film", labels, nullptr).get(), first.get());
  EXPECT_EQ(misses.value(), 1);
  // The label table grew: the entry revalidates by re-parsing in place —
  // one miss, no eviction — and the caller's old shared_ptr stays valid.
  labels.Intern("studio");
  auto second = cache.Get("studio.film", labels, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_NE(second.get(), first.get());
  EXPECT_EQ(misses.value(), 2);
  EXPECT_EQ(evictions.value(), 0);
}

TEST(ParseCacheTest, ParseFailuresAreCachedWithTheirError) {
  Counter& hits = TestCounter("test.parse_cache.fail.hits");
  Counter& misses = TestCounter("test.parse_cache.fail.misses");
  LabelTable labels;
  ParseCache cache("test.parse_cache.fail", 64);
  std::string error;
  EXPECT_EQ(cache.Get("movie..", labels, &error), nullptr);
  ASSERT_FALSE(error.empty());
  const std::string first_error = error;
  error.clear();
  // The second lookup is a HIT that replays the cached failure.
  EXPECT_EQ(cache.Get("movie..", labels, &error), nullptr);
  EXPECT_EQ(error, first_error);
  EXPECT_EQ(misses.value(), 1);
  EXPECT_EQ(hits.value(), 1);
}

TEST(ParseCacheTest, ConcurrentMissesOnOneTextAgree) {
  // Misses parse outside the lock, so racing callers may parse the same
  // text twice; the first insert wins, every caller gets an equal
  // expression, and each call counts exactly once.
  Counter& hits = TestCounter("test.parse_cache.race.hits");
  Counter& misses = TestCounter("test.parse_cache.race.misses");
  DataGraph g = testing_util::BuildMovieGraph();
  ParseCache cache("test.parse_cache.race", 16);
  const std::string text = "movieDB.director.movie.title";
  constexpr int kThreads = 8;
  constexpr int kCalls = 200;
  std::vector<std::shared_ptr<const PathExpression>> got(kThreads * kCalls);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCalls; ++i) {
        got[static_cast<size_t>(t * kCalls + i)] =
            cache.Get(text, g.labels(), nullptr);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const PathExpression want = testing_util::MustParse(text, g.labels());
  for (const auto& expr : got) {
    ASSERT_NE(expr, nullptr);
    EXPECT_EQ(expr->text(), want.text());
    EXPECT_EQ(expr->chain_labels(), want.chain_labels());
  }
  EXPECT_GE(misses.value(), 1);
  EXPECT_EQ(hits.value() + misses.value(), kThreads * kCalls);
}

TEST(ParseCacheTest, ConcurrentOverflowStaysBoundedAndExact) {
  // Four threads cycle more distinct texts than the cache holds, so every
  // shard keeps evicting while the others insert. Each call must count as
  // exactly one hit or miss, the resident total must never pass
  // max_entries, and every answer must be the expression of the text asked.
  Counter& hits = TestCounter("test.parse_cache.overflow.hits");
  Counter& misses = TestCounter("test.parse_cache.overflow.misses");
  Counter& evictions = TestCounter("test.parse_cache.overflow.evictions");
  DataGraph g = testing_util::BuildMovieGraph();
  constexpr size_t kCap = 64;
  ParseCache cache("test.parse_cache.overflow", kCap);
  constexpr int kThreads = 4;
  constexpr int kTexts = 300;
  constexpr int kCalls = 2000;
  std::vector<std::string> texts;
  for (int i = 0; i < kTexts; ++i) {
    texts.push_back("director.movie" + std::string(i % 3 == 0 ? "._" : "") +
                    ".l" + std::to_string(i));
  }
  std::atomic<int> wrong_text{0};
  std::atomic<int> over_capacity{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCalls; ++i) {
        const std::string& text =
            texts[static_cast<size_t>((i * 7 + t * 31) % kTexts)];
        const auto expr = cache.Get(text, g.labels(), nullptr);
        if (expr == nullptr || expr->text() != text) wrong_text.fetch_add(1);
        if (cache.size() > kCap) over_capacity.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong_text.load(), 0);
  EXPECT_EQ(over_capacity.load(), 0);
  EXPECT_EQ(hits.value() + misses.value(), kThreads * kCalls);
  EXPECT_GE(misses.value(), kTexts);
  EXPECT_LE(cache.size(), kCap);
  // Every miss inserted or replaced an entry; whatever is not resident now
  // was evicted.
  EXPECT_GE(evictions.value(), kTexts - static_cast<int64_t>(kCap));
}

}  // namespace
}  // namespace dki
