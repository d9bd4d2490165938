#include "query/load_tracker.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "query/evaluator.h"
#include "serve/apply.h"
#include "tests/test_util.h"

namespace dki {
namespace {

class LoadTrackerTest : public ::testing::Test {
 protected:
  LoadTrackerTest() {
    a_ = labels_.Intern("a");
    b_ = labels_.Intern("b");
    c_ = labels_.Intern("c");
  }

  void Record(QueryLoadTracker* tracker, const std::string& text,
              int64_t count) {
    tracker->Record(testing_util::MustParse(text, labels_), labels_, count);
  }

  LabelTable labels_;
  LabelId a_, b_, c_;
};

TEST_F(LoadTrackerTest, FullCoverageMatchesPaperRule) {
  QueryLoadTracker tracker;
  Record(&tracker, "a.b.c", 1);
  Record(&tracker, "b.c", 99);
  LabelRequirements reqs = tracker.MineRequirements(1.0);
  EXPECT_EQ(reqs.at(c_), 2);  // deepest query wins at coverage 1.0
  EXPECT_EQ(tracker.total_queries(), 100);
  EXPECT_EQ(tracker.label_traffic(c_), 100);
}

TEST_F(LoadTrackerTest, PartialCoverageIgnoresRareDeepQueries) {
  QueryLoadTracker tracker;
  Record(&tracker, "a.b.c", 1);   // 1% of traffic needs k=2
  Record(&tracker, "b.c", 99);    // 99% needs k=1
  LabelRequirements reqs = tracker.MineRequirements(0.95);
  EXPECT_EQ(reqs.at(c_), 1);  // the rare deep query validates instead
}

TEST_F(LoadTrackerTest, ZeroRequirementLabelsOmitted) {
  QueryLoadTracker tracker;
  Record(&tracker, "c", 50);  // single label: no similarity needed
  LabelRequirements reqs = tracker.MineRequirements(1.0);
  EXPECT_TRUE(reqs.empty());
  EXPECT_EQ(tracker.label_traffic(c_), 50);  // still counted as traffic
}

TEST_F(LoadTrackerTest, TrafficMixSelectsPerLabelCoverage) {
  QueryLoadTracker tracker;
  Record(&tracker, "b.c", 60);
  Record(&tracker, "a.b.c", 40);
  EXPECT_EQ(tracker.MineRequirements(0.6).at(c_), 1);
  EXPECT_EQ(tracker.MineRequirements(0.61).at(c_), 2);
}

TEST_F(LoadTrackerTest, DecayFadesOldPatterns) {
  QueryLoadTracker tracker;
  Record(&tracker, "a.b.c", 4);
  EXPECT_EQ(tracker.MineRequirements(1.0).at(c_), 2);
  tracker.Decay(0.1);  // 4 * 0.1 < 1: pattern evicted
  EXPECT_TRUE(tracker.MineRequirements(1.0).empty());
  EXPECT_EQ(tracker.total_queries(), 0);
}

TEST_F(LoadTrackerTest, DecayKeepsHotPatterns) {
  QueryLoadTracker tracker;
  Record(&tracker, "a.b.c", 1000);
  tracker.Decay(0.5);
  EXPECT_EQ(tracker.MineRequirements(1.0).at(c_), 2);
  EXPECT_EQ(tracker.total_queries(), 500);
}

TEST_F(LoadTrackerTest, DecayRecomputesTotalFromSurvivors) {
  QueryLoadTracker tracker;
  Record(&tracker, "a.b.c", 4);     // c's k=2 bucket
  Record(&tracker, "b.c", 1000);    // c's k=1 bucket
  Record(&tracker, "a.b", 300);     // b's k=1 bucket
  EXPECT_EQ(tracker.total_queries(), 1304);

  // Nothing evicted: the total just scales.
  tracker.Decay(0.5);
  EXPECT_EQ(tracker.total_queries(), 652);
  EXPECT_EQ(tracker.total_queries(),
            tracker.label_traffic(b_) + tracker.label_traffic(c_));

  // The k=2 bucket decays to 0.8 and is evicted; the total must drop to the
  // surviving weight (500*0.4 + 150*0.4 = 260), not the scaled 260.8.
  tracker.Decay(0.4);
  EXPECT_EQ(tracker.total_queries(), 260);
  EXPECT_EQ(tracker.total_queries(),
            tracker.label_traffic(b_) + tracker.label_traffic(c_));
  EXPECT_EQ(tracker.MineRequirements(1.0).at(c_), 1);  // deep pattern gone

  // Repeated decays keep the invariant total == sum of surviving buckets
  // (factor 0.5 keeps every bucket integral, so the rounded per-label sums
  // are exact).
  for (int i = 0; i < 2; ++i) {
    tracker.Decay(0.5);
    EXPECT_EQ(tracker.total_queries(),
              tracker.label_traffic(b_) + tracker.label_traffic(c_));
  }
  tracker.Decay(0.001);  // everything evicted
  EXPECT_EQ(tracker.total_queries(), 0);
  EXPECT_EQ(tracker.label_traffic(b_), 0);
  EXPECT_EQ(tracker.label_traffic(c_), 0);
}

TEST_F(LoadTrackerTest, MultiTargetLoadDoesNotJumpAcrossDecay) {
  // A regex query feeding two target buckets used to be counted once by
  // Record but twice by Decay's recompute, so a no-op Decay(1.0) jumped
  // total_queries(). The total now derives from the buckets, so a factor-1
  // decay of a constant load is invisible.
  QueryLoadTracker tracker;
  Record(&tracker, "a.a.(b|c)", 10);
  const int64_t before = tracker.total_queries();
  EXPECT_EQ(before, tracker.label_traffic(b_) + tracker.label_traffic(c_));
  for (int i = 0; i < 5; ++i) {
    tracker.Decay(1.0);
    EXPECT_EQ(tracker.total_queries(), before);
  }
}

TEST_F(LoadTrackerTest, PropertyTotalAlwaysEqualsSurvivingBucketSum) {
  // Differential property test against a shadow model of the buckets: after
  // ANY interleaving of Record and Decay, total_queries() must equal the
  // rounded sum of surviving bucket weights, and each label_traffic() the
  // rounded sum of that label's buckets.
  QueryLoadTracker tracker;
  std::map<std::pair<LabelId, int>, double> shadow;
  LoadAnalyzerOptions analyzer_options;

  const std::vector<std::string> pool = {"a.b.c", "b.c",        "a.b",
                                         "c",     "a.a.(b|c)",  "a?.b.c",
                                         "a.b*",  "(a|b).c"};
  Rng rng(20260807);
  auto check = [&] {
    double total = 0.0;
    std::map<LabelId, double> by_label;
    for (const auto& [key, weight] : shadow) {
      total += weight;
      by_label[key.first] += weight;
    }
    ASSERT_EQ(tracker.total_queries(),
              static_cast<int64_t>(std::llround(total)));
    for (LabelId l : {a_, b_, c_}) {
      ASSERT_EQ(tracker.label_traffic(l),
                static_cast<int64_t>(std::llround(by_label[l])));
    }
  };

  for (int step = 0; step < 400; ++step) {
    if (rng.Next() % 4 != 0) {
      const std::string& text = pool[rng.Next() % pool.size()];
      int64_t count = 1 + static_cast<int64_t>(rng.Next() % 50);
      PathExpression q = testing_util::MustParse(text, labels_);
      tracker.Record(q, labels_, count);
      // Mirror Record's bucket semantics.
      auto targets = QueryRequirementTargets(q, labels_, analyzer_options);
      if (targets.empty()) {
        if (q.is_chain() && !q.chain_labels().empty() &&
            q.chain_labels().back() >= 0) {
          shadow[{q.chain_labels().back(), 0}] += static_cast<double>(count);
        }
      } else {
        for (const auto& [label, k] : targets) {
          shadow[{label, k}] += static_cast<double>(count);
        }
      }
    } else {
      // Fractional factors exercise the llround path; occasional 1.0 is the
      // constant-load case.
      double factor = 0.3 + 0.1 * static_cast<double>(rng.Next() % 8);
      tracker.Decay(factor);
      for (auto it = shadow.begin(); it != shadow.end();) {
        it->second *= factor;
        it = it->second < 1.0 ? shadow.erase(it) : std::next(it);
      }
    }
    check();
  }
  // Drain: repeated decay of whatever is left must converge to 0 on both
  // sides without ever disagreeing.
  for (int i = 0; i < 30; ++i) {
    tracker.Decay(0.5);
    for (auto it = shadow.begin(); it != shadow.end();) {
      it->second *= 0.5;
      it = it->second < 1.0 ? shadow.erase(it) : std::next(it);
    }
    check();
  }
  EXPECT_EQ(tracker.total_queries(), 0);
}

TEST_F(LoadTrackerTest, RegexQueriesAttributeToEndLabels) {
  QueryLoadTracker tracker;
  Record(&tracker, "a.a.(b|c)", 10);
  LabelRequirements reqs = tracker.MineRequirements(1.0);
  EXPECT_EQ(reqs.at(b_), 2);
  EXPECT_EQ(reqs.at(c_), 2);
}

TEST_F(LoadTrackerTest, HeldRequirementRisesAtOnceAndFallsOnEvidence) {
  QueryLoadTracker tracker;
  Record(&tracker, "b.c", 960);    // k=1 covers 96%, just over the goal
  Record(&tracker, "a.b.c", 40);
  EXPECT_EQ(tracker.MineRequirements(0.95).at(c_), 1);
  // Falling from a held k=2 needs k=1 to cover 95% plus 3 standard errors
  // (~2.1% at 1000 misses): 96% is not enough.
  const LabelRequirements held_two = {{c_, 2}};
  EXPECT_EQ(tracker.MineRequirements(0.95, &held_two).at(c_), 2);
  Record(&tracker, "b.c", 1000);  // now 98%: clear evidence
  EXPECT_EQ(tracker.MineRequirements(0.95, &held_two).at(c_), 1);
  // Rising needs no evidence margin: k=1 covering 94% is below the goal.
  QueryLoadTracker short_of_goal;
  Record(&short_of_goal, "b.c", 940);
  Record(&short_of_goal, "a.b.c", 60);
  const LabelRequirements held_one = {{c_, 1}};
  EXPECT_EQ(short_of_goal.MineRequirements(0.95, &held_one).at(c_), 2);
}

TEST_F(LoadTrackerTest, HeldRequirementMovesOnClearEvidence) {
  QueryLoadTracker tracker;
  Record(&tracker, "b.c", 500);
  Record(&tracker, "a.b.c", 500);
  const LabelRequirements held = {{c_, 1}, {b_, 3}};
  // c needs k=2 for half its traffic; b has no traffic and falls to 0.
  const LabelRequirements want = {{c_, 2}};
  EXPECT_EQ(tracker.MineRequirements(0.95, &held), want);
  // A label held at 0 with all its traffic at k=0 stays out of the map.
  Record(&tracker, "a", 100);
  EXPECT_EQ(tracker.MineRequirements(0.95, &held).count(a_), 0u);
}

TEST_F(LoadTrackerTest, HeldRequirementFallsOnceItsTrafficDecaysAway) {
  QueryLoadTracker tracker;
  Record(&tracker, "a.b", 1000);
  const LabelRequirements held = tracker.MineRequirements(0.95);
  ASSERT_EQ(held, (LabelRequirements{{b_, 1}}));
  // The traffic moves to another chain. While b's fading buckets remain,
  // their small weight is no evidence for a fall and b holds.
  for (int tick = 0; tick < 20; ++tick) {
    tracker.Decay(0.8);
    Record(&tracker, "b.c", 100);
  }
  ASSERT_GT(tracker.label_traffic(b_), 0);
  EXPECT_EQ(tracker.MineRequirements(0.95, &held),
            (LabelRequirements{{b_, 1}, {c_, 1}}));
  // Once they decay away, b falls back to 0.
  while (tracker.label_traffic(b_) > 0) {
    tracker.Decay(0.8);
    Record(&tracker, "b.c", 100);
  }
  EXPECT_EQ(tracker.MineRequirements(0.95, &held),
            (LabelRequirements{{c_, 1}}));
}

TEST_F(LoadTrackerTest, TrafficChangedBetweenSumsMovedLabels) {
  QueryLoadTracker tracker;
  Record(&tracker, "b.c", 70);
  Record(&tracker, "a.b", 30);
  const LabelRequirements a = {{c_, 1}, {b_, 1}};
  EXPECT_EQ(tracker.TrafficChangedBetween(a, a), 0);
  EXPECT_EQ(tracker.TrafficChangedBetween(a, {{c_, 2}, {b_, 1}}), 70);
  EXPECT_EQ(tracker.TrafficChangedBetween(a, {{c_, 1}}), 30);
  EXPECT_EQ(tracker.TrafficChangedBetween({}, a), 100);
}

// Mined requirements drive the grow retune (DkIndex::Demote to the merged
// requirements) the server's tuner submits.
TEST(LoadTrackerRetuneTest, MinedPromotionsMakeDeepQueriesCertain) {
  Rng rng(401);
  DataGraph g = testing_util::RandomGraph(120, 4, 20, &rng);
  // Build an index for a shallow load, then record a deeper one.
  std::string shallow = testing_util::RandomChainQuery(g, 2, &rng);
  LabelRequirements initial =
      MineRequirementsFromText({shallow}, g.labels(), nullptr);
  DkIndex dk = DkIndex::Build(&g, initial);

  QueryLoadTracker tracker;
  std::string deep;
  for (int tries = 0; tries < 50 && deep.empty(); ++tries) {
    std::string candidate = testing_util::RandomChainQuery(g, 4, &rng);
    PathExpression q = testing_util::MustParse(candidate, g.labels());
    if (q.chain_labels().size() == 4) deep = candidate;
  }
  ASSERT_FALSE(deep.empty());
  tracker.Record(testing_util::MustParse(deep, g.labels()), g.labels(), 10);

  const LabelRequirements mined = tracker.MineRequirements(1.0);
  ASSERT_FALSE(mined.empty());
  // The deep query's end label needs k=3, above anything the shallow index
  // has, so applying the mined map promotes it.
  PathExpression q = testing_util::MustParse(deep, g.labels());
  LabelId end = q.chain_labels().back();
  ASSERT_TRUE(mined.count(end) > 0);
  EXPECT_EQ(mined.at(end), 3);
  EXPECT_LT(dk.effective_requirement(end), 3);

  // Applying it makes the deep query sound without validation.
  ASSERT_TRUE(ApplyUpdateOp(&dk, UpdateOp::Retune(mined, /*shrink=*/false)));
  EvalStats stats;
  EXPECT_EQ(EvaluateOnIndex(dk.index(), q, &stats),
            EvaluateOnDataGraph(g, q));
  EXPECT_EQ(stats.uncertain_index_nodes, 0);
}

TEST(LoadTrackerRetuneTest, EmptyTrackerDemotesToTheLabelSplit) {
  Rng rng(409);
  DataGraph g = testing_util::RandomGraph(100, 4, 15, &rng);
  std::string query;
  for (int tries = 0; tries < 50 && query.empty(); ++tries) {
    std::string candidate = testing_util::RandomChainQuery(g, 3, &rng);
    PathExpression q = testing_util::MustParse(candidate, g.labels());
    if (q.chain_labels().size() == 3) query = candidate;
  }
  ASSERT_FALSE(query.empty());
  LabelRequirements reqs =
      MineRequirementsFromText({query}, g.labels(), nullptr);
  DkIndex dk = DkIndex::Build(&g, reqs);
  const PathExpression q = testing_util::MustParse(query, g.labels());
  ASSERT_GT(dk.effective_requirement(q.chain_labels().back()), 0);

  // The tracker sees nothing: the mined map is empty, even against the
  // index's own requirements, and demoting to it undoes all refinement.
  QueryLoadTracker tracker;
  EXPECT_TRUE(tracker.MineRequirements(1.0).empty());
  EXPECT_TRUE(tracker.MineRequirements(1.0, &reqs).empty());
  dk.Demote(tracker.MineRequirements(1.0, &reqs));
  for (IndexNodeId i = 0; i < dk.index().NumIndexNodes(); ++i) {
    EXPECT_EQ(dk.index().k(i), 0);
  }
}

}  // namespace
}  // namespace dki
