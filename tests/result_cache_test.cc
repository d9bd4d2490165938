#include "query/result_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "datagen/nasa_generator.h"
#include "datagen/xmark_generator.h"
#include "index/ak_index.h"
#include "index/dk_index.h"
#include "pathexpr/tokenizer.h"
#include "query/evaluator.h"
#include "query/load_analyzer.h"
#include "serve/apply.h"
#include "tests/test_util.h"

namespace dki {
namespace {

TEST(CanonicalizeQueryTest, NormalizesTokenSpacing) {
  EXPECT_EQ(CanonicalizeQuery("a.b.c"), "a.b.c");
  EXPECT_EQ(CanonicalizeQuery("a . b\t.  c"), "a.b.c");
  EXPECT_EQ(CanonicalizeQuery("(a|b)* . _ // c"), "(a|b)*._//c");
  // Untokenizable input falls through unchanged (it cannot be a live query).
  EXPECT_EQ(CanonicalizeQuery("a.%"), "a.%");
}

TEST(CanonicalizeQueryTest, KeepsAdjacentWordsApart) {
  EXPECT_EQ(CanonicalizeQuery("a b"), "a b");
  EXPECT_EQ(CanonicalizeQuery("a\t\t_"), "a _");
  EXPECT_EQ(CanonicalizeQuery(" _  a . b "), "_ a.b");
  EXPECT_NE(CanonicalizeQuery("a b"), CanonicalizeQuery("ab"));
}

// Property: for random token streams — adjacent labels and `_` included —
// rendered with random whitespace, the canonical text tokenizes back to the
// same stream, and canonicalizing is idempotent.
TEST(CanonicalizeQueryTest, RoundTripsRandomTokenStreams) {
  struct Piece {
    TokenKind kind;
    const char* text;
  };
  const Piece pieces[] = {
      {TokenKind::kLabel, "a"},       {TokenKind::kLabel, "ab"},
      {TokenKind::kLabel, "a_b"},     {TokenKind::kLabel, "_x"},
      {TokenKind::kLabel, "x-y:z"},   {TokenKind::kLabel, "__"},
      {TokenKind::kWildcard, "_"},    {TokenKind::kDot, "."},
      {TokenKind::kDoubleSlash, "//"}, {TokenKind::kPipe, "|"},
      {TokenKind::kStar, "*"},        {TokenKind::kPlus, "+"},
      {TokenKind::kQuestion, "?"},    {TokenKind::kLParen, "("},
      {TokenKind::kRParen, ")"},
  };
  const char* const spaces[] = {"", " ", "\t", "  ", "\n "};
  auto is_word = [](TokenKind k) {
    return k == TokenKind::kLabel || k == TokenKind::kWildcard;
  };
  auto kinds_and_texts = [](const std::vector<Token>& tokens) {
    std::vector<std::pair<TokenKind, std::string>> out;
    for (const Token& t : tokens) out.emplace_back(t.kind, t.text);
    return out;
  };
  Rng rng(829);
  for (int trial = 0; trial < 2000; ++trial) {
    const int length = static_cast<int>(rng.UniformInt(1, 8));
    std::string text;
    std::vector<std::pair<TokenKind, std::string>> expected;
    bool after_word = false;
    for (int i = 0; i < length; ++i) {
      const Piece& p = pieces[rng.UniformInt(
          0, static_cast<int64_t>(std::size(pieces)) - 1)];
      const char* gap = spaces[rng.UniformInt(
          0, static_cast<int64_t>(std::size(spaces)) - 1)];
      // Two touching words would lex as one label: keep them apart.
      if (after_word && is_word(p.kind) && *gap == '\0') gap = " ";
      text += gap;
      text += p.text;
      after_word = is_word(p.kind);
      expected.emplace_back(p.kind,
                            p.kind == TokenKind::kLabel ? p.text : "");
    }
    expected.emplace_back(TokenKind::kEnd, "");

    std::vector<Token> tokens;
    std::string error;
    ASSERT_TRUE(Tokenize(text, &tokens, &error)) << text << ": " << error;
    ASSERT_EQ(kinds_and_texts(tokens), expected) << text;
    const std::string canonical = CanonicalizeQuery(text);
    ASSERT_TRUE(Tokenize(canonical, &tokens, &error)) << canonical;
    EXPECT_EQ(kinds_and_texts(tokens), expected)
        << "'" << text << "' -> '" << canonical << "'";
    EXPECT_EQ(CanonicalizeQuery(canonical), canonical) << text;
  }
}

// The serving pattern of QueryServer's read path, over the reference
// evaluator: probe the canonical key at the index's epoch, and on a miss
// evaluate and Put.
std::vector<NodeId> Serve(ResultCache* cache, const IndexGraph& index,
                          const PathExpression& query, bool validate = true) {
  std::string key = CanonicalizeQuery(query.text());
  if (!validate) key += "#raw";  // raw answers are a different result space
  std::vector<NodeId> result;
  if (cache->TryGet(key, index.epoch(), &result)) return result;
  result = EvaluateOnIndex(index, query, nullptr, validate);
  cache->Put(key, index.epoch(), result);
  return result;
}

TEST(ResultCacheTest, HitOnRepeatedQuery) {
  DataGraph g = testing_util::BuildMovieGraph();
  LabelRequirements reqs;
  reqs[g.labels().Find("title")] = 2;
  DkIndex dk = DkIndex::Build(&g, reqs);

  ResultCache cache;
  PathExpression q =
      testing_util::MustParse("director.movie.title", g.labels());
  auto first = Serve(&cache, dk.index(), q);
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().misses, 1);

  // A textual variant of the same query hits the same entry.
  PathExpression variant =
      testing_util::MustParse("director . movie . title", g.labels());
  auto second = Serve(&cache, dk.index(), variant);
  EXPECT_EQ(first, second);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(first, EvaluateOnIndex(dk.index(), q));
}

TEST(ResultCacheTest, ValidateFlagKeyedSeparately) {
  Rng rng(811);
  DataGraph g = testing_util::RandomGraph(120, 4, 30, &rng);
  LabelRequirements reqs;
  DkIndex dk = DkIndex::Build(&g, reqs);  // k=0 everywhere: all uncertain

  ResultCache cache;
  std::string text = testing_util::RandomChainQuery(g, 3, &rng);
  PathExpression q = testing_util::MustParse(text, g.labels());
  auto validated = Serve(&cache, dk.index(), q, true);
  auto raw = Serve(&cache, dk.index(), q, false);
  EXPECT_EQ(cache.stats().misses, 2);  // different result spaces, no mixups
  EXPECT_EQ(validated, EvaluateOnIndex(dk.index(), q, nullptr, true));
  EXPECT_EQ(raw, EvaluateOnIndex(dk.index(), q, nullptr, false));
}

TEST(ResultCacheTest, AddEdgeInvalidatesViaEpoch) {
  DataGraph g = testing_util::BuildMovieGraph();
  LabelRequirements reqs;
  reqs[g.labels().Find("title")] = 2;
  DkIndex dk = DkIndex::Build(&g, reqs);

  ResultCache cache;
  PathExpression q =
      testing_util::MustParse("actor.movie.title", g.labels());
  auto before = Serve(&cache, dk.index(), q);

  // Wire another actor to another movie: the query answer grows.
  LabelId actor = g.labels().Find("actor");
  LabelId movie = g.labels().Find("movie");
  NodeId lone_actor = kInvalidNode, unshared_movie = kInvalidNode;
  for (NodeId a : g.NodesWithLabel(actor)) {
    bool has_movie_child = false;
    for (NodeId c : g.children(a)) {
      if (g.label(c) == movie) has_movie_child = true;
    }
    if (!has_movie_child) lone_actor = a;
  }
  for (NodeId m : g.NodesWithLabel(movie)) {
    bool has_actor_parent = false;
    for (NodeId p : g.parents(m)) {
      if (g.label(p) == actor) has_actor_parent = true;
    }
    if (!has_actor_parent) unshared_movie = m;
  }
  ASSERT_NE(lone_actor, kInvalidNode);
  ASSERT_NE(unshared_movie, kInvalidNode);

  uint64_t epoch_before = dk.epoch();
  dk.AddEdge(lone_actor, unshared_movie);
  EXPECT_GT(dk.epoch(), epoch_before);

  auto after = Serve(&cache, dk.index(), q);
  EXPECT_EQ(cache.stats().stale_drops, 1);
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(after, EvaluateOnIndex(dk.index(), q));
  EXPECT_NE(before, after) << "the new edge should change the answer";
}

TEST(ResultCacheTest, EveryMutationKindBumpsEpoch) {
  Rng rng(813);
  DataGraph g = testing_util::RandomGraph(150, 4, 30, &rng);
  LabelRequirements reqs;
  reqs[static_cast<LabelId>(rng.UniformInt(2, g.labels().size() - 1))] = 2;
  DkIndex dk = DkIndex::Build(&g, reqs);

  uint64_t epoch = dk.epoch();

  // A cached entry stored before each mutation must be stale afterwards:
  // TryGet at the post-mutation epoch drops it and misses.
  ResultCache cache;
  int64_t expected_stale_drops = 0;
  auto expect_invalidated = [&]() {
    std::vector<NodeId> out;
    EXPECT_FALSE(cache.TryGet("probe", dk.epoch(), &out));
    EXPECT_EQ(cache.stats().stale_drops, ++expected_stale_drops);
  };

  // AddEdge (fresh edge).
  NodeId u = kInvalidNode, v = kInvalidNode;
  for (int tries = 0; tries < 200; ++tries) {
    NodeId a = static_cast<NodeId>(rng.UniformInt(1, g.NumNodes() - 1));
    NodeId b = static_cast<NodeId>(rng.UniformInt(1, g.NumNodes() - 1));
    if (a != b && !g.HasEdge(a, b)) {
      u = a;
      v = b;
      break;
    }
  }
  ASSERT_NE(u, kInvalidNode);
  cache.Put("probe", dk.epoch(), {});
  dk.AddEdge(u, v);
  EXPECT_GT(dk.epoch(), epoch);
  expect_invalidated();
  epoch = dk.epoch();

  // AddEdge on an already-present edge is a no-op and need not invalidate.
  dk.AddEdge(u, v);

  // RemoveEdge.
  epoch = dk.epoch();
  cache.Put("probe", dk.epoch(), {});
  ASSERT_TRUE(dk.RemoveEdge(u, v));
  EXPECT_GT(dk.epoch(), epoch);
  expect_invalidated();
  epoch = dk.epoch();

  // AddSubgraph.
  DataGraph h;
  NodeId ha = h.AddNode("sub_x");
  NodeId hb = h.AddNode("sub_y");
  h.AddEdge(h.root(), ha);
  h.AddEdge(ha, hb);
  cache.Put("probe", dk.epoch(), {});
  dk.AddSubgraph(h);
  EXPECT_GT(dk.epoch(), epoch);
  expect_invalidated();
  epoch = dk.epoch();

  // Demote (Theorem 2 quotient rebuild).
  cache.Put("probe", dk.epoch(), {});
  dk.Demote(LabelRequirements{});
  EXPECT_GT(dk.epoch(), epoch);
  expect_invalidated();
  epoch = dk.epoch();

  // Grow retune back.
  cache.Put("probe", dk.epoch(), {});
  ASSERT_TRUE(ApplyUpdateOp(&dk, UpdateOp::Retune(reqs, /*shrink=*/false)));
  EXPECT_GT(dk.epoch(), epoch);
  expect_invalidated();
}

TEST(ResultCacheTest, LruEvictionUnderSmallByteBudget) {
  Rng rng(821);
  DataGraph g = testing_util::RandomGraph(300, 5, 50, &rng);
  LabelRequirements reqs;
  DkIndex dk = DkIndex::Build(&g, reqs);

  ResultCache::Options options;
  options.byte_budget = 600;  // room for only a few entries
  ResultCache cache(options);

  std::vector<std::string> texts;
  for (int i = 0; i < 12; ++i) {
    texts.push_back(testing_util::RandomChainQuery(g, 2, &rng));
  }
  for (const std::string& text : texts) {
    PathExpression q = testing_util::MustParse(text, g.labels());
    Serve(&cache, dk.index(), q);
  }
  ResultCache::Stats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_LE(stats.bytes, options.byte_budget);
  EXPECT_LT(stats.entries, 12);

  // The most recent distinct query survived; answers stay correct either way.
  PathExpression last = testing_util::MustParse(texts.back(), g.labels());
  auto result = Serve(&cache, dk.index(), last);
  EXPECT_EQ(result, EvaluateOnIndex(dk.index(), last));
}

TEST(ResultCacheTest, OversizedEntryRejectedWithoutEviction) {
  ResultCache::Options options;
  options.byte_budget = 600;
  ResultCache cache(options);

  cache.Put("small_a", 1, {1, 2, 3});
  cache.Put("small_b", 1, {4, 5, 6});
  ResultCache::Stats before = cache.stats();
  ASSERT_EQ(before.entries, 2);

  // An entry whose own footprint exceeds the entire budget must be turned
  // away up front — inserting it and evicting to budget would wipe every
  // resident entry AND the new one, leaving the cache empty.
  std::vector<NodeId> huge(1024, 7);  // 4 KiB of payload vs a 600 B budget
  cache.Put("huge", 1, huge);

  ResultCache::Stats after = cache.stats();
  EXPECT_EQ(after.entries, 2);
  EXPECT_EQ(after.bytes, before.bytes);
  EXPECT_EQ(after.evictions, 0);
  EXPECT_EQ(after.oversized_rejects, 1);

  std::vector<NodeId> out;
  EXPECT_TRUE(cache.TryGet("small_a", 1, &out));
  EXPECT_EQ(out, (std::vector<NodeId>{1, 2, 3}));
  EXPECT_TRUE(cache.TryGet("small_b", 1, &out));
  EXPECT_FALSE(cache.TryGet("huge", 1, &out));
}

TEST(ResultCacheTest, ConcurrentMixedUseKeepsInvariants) {
  ResultCache::Options options;
  options.byte_budget = 4096;
  ResultCache cache(options);

  // Hammer TryGet/Put/Clear/stats from the thread pool; the assertions are
  // the invariants (budget respected, stats consistent) plus, under TSan,
  // the absence of data races.
  ThreadPool pool(4);
  constexpr int64_t kIters = 2000;
  pool.ParallelFor(kIters, 8, [&](int chunk, int64_t begin, int64_t end) {
    (void)chunk;
    for (int64_t i = begin; i < end; ++i) {
      std::string key = "q" + std::to_string(i % 17);
      uint64_t epoch = static_cast<uint64_t>(i % 3);
      switch (i % 5) {
        case 0:
        case 1:
          cache.Put(key, epoch,
                    std::vector<NodeId>(static_cast<size_t>(i % 9),
                                        static_cast<NodeId>(i)));
          break;
        case 2:
        case 3: {
          std::vector<NodeId> out;
          cache.TryGet(key, epoch, &out);
          break;
        }
        case 4:
          if (i % 401 == 0) {
            cache.Clear();
          } else {
            ResultCache::Stats s = cache.stats();
            EXPECT_GE(s.bytes, 0);
            EXPECT_LE(s.bytes, options.byte_budget);
          }
          break;
      }
    }
  });

  ResultCache::Stats s = cache.stats();
  EXPECT_LE(s.bytes, options.byte_budget);
  EXPECT_GE(s.hits + s.misses, 0);
}

TEST(ResultCacheTest, OlderEpochNeitherDropsNorReplacesNewerEntry) {
  ResultCache cache;
  cache.Put("k", 5, {1});
  std::vector<NodeId> out;
  // A reader on an older snapshot misses without evicting the current
  // answer, and its Put cannot overwrite it.
  EXPECT_FALSE(cache.TryGet("k", 4, &out));
  cache.Put("k", 4, {2});
  EXPECT_EQ(cache.stats().stale_drops, 0);
  ASSERT_TRUE(cache.TryGet("k", 5, &out));
  EXPECT_EQ(out, (std::vector<NodeId>{1}));
  // A newer epoch still drops it.
  EXPECT_FALSE(cache.TryGet("k", 6, &out));
  EXPECT_EQ(cache.stats().stale_drops, 1);
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.stats().bytes, 0);
}

// The byte budget is global across shards: with many more keys than shards,
// the total stays within budget, every fitting entry is resident right after
// its Put, and hits/misses/evictions/entries/bytes add up.
TEST(ResultCacheTest, ShardedBudgetIsGlobal) {
  constexpr int kKeys = 300;  // > kShards * 16 + 1
  static_assert(kKeys > ResultCache::kShards * 16);
  for (int64_t budget : {int64_t{600}, int64_t{4096}}) {
    ResultCache::Options options;
    options.byte_budget = budget;
    ResultCache cache(options);
    Rng rng(831);
    std::vector<std::vector<NodeId>> values(kKeys);
    int64_t oversized = 0;
    int64_t lookups = 0;
    for (int i = 0; i < kKeys; ++i) {
      const std::string key = "key" + std::to_string(i);
      values[i].assign(static_cast<size_t>(rng.UniformInt(0, 160)),
                       static_cast<NodeId>(i));
      const int64_t bytes = 96 + static_cast<int64_t>(key.size()) +
                            static_cast<int64_t>(values[i].size() * 4);
      cache.Put(key, 1, values[i]);
      std::vector<NodeId> out;
      ++lookups;
      if (bytes > budget) {
        ++oversized;
        EXPECT_FALSE(cache.TryGet(key, 1, &out)) << key;
      } else {
        ASSERT_TRUE(cache.TryGet(key, 1, &out)) << key << " budget " << budget;
        EXPECT_EQ(out, values[i]);
      }
      EXPECT_LE(cache.stats().bytes, budget);
    }
    // Sweep every key: the resident ones must account for entries/bytes.
    int64_t resident = 0;
    int64_t resident_bytes = 0;
    for (int i = 0; i < kKeys; ++i) {
      const std::string key = "key" + std::to_string(i);
      std::vector<NodeId> out;
      ++lookups;
      if (cache.TryGet(key, 1, &out)) {
        EXPECT_EQ(out, values[i]);
        ++resident;
        resident_bytes += 96 + static_cast<int64_t>(key.size()) +
                          static_cast<int64_t>(out.size() * 4);
      }
    }
    const ResultCache::Stats s = cache.stats();
    EXPECT_EQ(s.hits + s.misses, lookups);
    EXPECT_EQ(s.entries, resident);
    EXPECT_EQ(s.bytes, resident_bytes);
    EXPECT_LE(s.bytes, budget);
    EXPECT_EQ(s.oversized_rejects, oversized);
    EXPECT_EQ(s.evictions, kKeys - oversized - resident);
    EXPECT_GT(s.evictions, 0);
  }
}

TEST(ResultCacheTest, ConcurrentShardedUseStaysWithinBudget) {
  constexpr int kKeys = 257;
  for (int64_t budget : {int64_t{600}, int64_t{4096}}) {
    ResultCache::Options options;
    options.byte_budget = budget;
    ResultCache cache(options);
    constexpr int kThreads = 4;
    constexpr int kOpsPerThread = 3000;
    std::atomic<int64_t> lookups{0};
    std::atomic<int> wrong{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kOpsPerThread; ++i) {
          const int k = (i * 7 + t * 31) % kKeys;
          const std::string key = "key" + std::to_string(k);
          // A key's value is a function of the key, so any hit is checkable.
          const std::vector<NodeId> value(static_cast<size_t>(k % 40),
                                          static_cast<NodeId>(k));
          if (i % 3 == 0) {
            cache.Put(key, 1, value);
          } else {
            std::vector<NodeId> out;
            if (cache.TryGet(key, 1, &out) && out != value) wrong.fetch_add(1);
            lookups.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
    EXPECT_EQ(wrong.load(), 0);
    const ResultCache::Stats s = cache.stats();
    EXPECT_LE(s.bytes, budget);
    EXPECT_EQ(s.hits + s.misses, lookups.load());
    EXPECT_GT(s.evictions, 0);

    // At quiescence a fitting Put is resident right after it returns.
    std::vector<NodeId> out;
    cache.Put("fresh", 2, {9, 9});
    ASSERT_TRUE(cache.TryGet("fresh", 2, &out));
    EXPECT_EQ(out, (std::vector<NodeId>{9, 9}));
    EXPECT_LE(cache.stats().bytes, budget);
  }
}

TEST(ResultCacheTest, CachedMatchesUncachedOnXmarkSeed) {
  XmarkOptions options;
  options.scale = 0.08;
  DataGraph g = GenerateXmarkGraph(options).graph;
  Rng rng(823);
  std::vector<std::string> texts;
  for (int i = 0; i < 12; ++i) {
    texts.push_back(testing_util::RandomChainQuery(
        g, static_cast<int>(rng.UniformInt(2, 4)), &rng));
  }
  LabelRequirements reqs = MineRequirementsFromText(texts, g.labels());
  DkIndex dk = DkIndex::Build(&g, reqs);

  ResultCache cache;
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string& text : texts) {
      PathExpression q = testing_util::MustParse(text, g.labels());
      EXPECT_EQ(Serve(&cache, dk.index(), q),
                EvaluateOnIndex(dk.index(), q))
          << text << " pass " << pass;
    }
  }
  // Second pass is all hits: results are bit-identical stored vectors.
  EXPECT_GE(cache.stats().hits, 12);
}

TEST(ResultCacheTest, CachedMatchesUncachedOnNasaSeedAcrossUpdates) {
  NasaOptions options;
  options.scale = 0.3;
  DataGraph g = GenerateNasaGraph(options).graph;
  Rng rng(827);
  std::vector<std::string> texts;
  for (int i = 0; i < 8; ++i) {
    texts.push_back(testing_util::RandomChainQuery(
        g, static_cast<int>(rng.UniformInt(2, 4)), &rng));
  }
  LabelRequirements reqs = MineRequirementsFromText(texts, g.labels());
  DkIndex dk = DkIndex::Build(&g, reqs);

  ResultCache cache;
  for (int round = 0; round < 3; ++round) {
    for (const std::string& text : texts) {
      PathExpression q = testing_util::MustParse(text, g.labels());
      EXPECT_EQ(Serve(&cache, dk.index(), q),
                EvaluateOnIndex(dk.index(), q))
          << text << " round " << round;
    }
    // Mutate between rounds; stale entries must never be served.
    NodeId a = static_cast<NodeId>(rng.UniformInt(1, g.NumNodes() - 1));
    NodeId b = static_cast<NodeId>(rng.UniformInt(1, g.NumNodes() - 1));
    if (a != b && !g.HasEdge(a, b)) dk.AddEdge(a, b);
  }
  EXPECT_GT(cache.stats().stale_drops, 0);
}

}  // namespace
}  // namespace dki
