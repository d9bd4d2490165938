// Cross-checks the compiled automaton and the graph evaluator against a
// brute-force interpreter of the path-expression AST: random expressions,
// exhaustive words over a small alphabet, and random graphs.

#include <gtest/gtest.h>

#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "graph/graph_algos.h"
#include "pathexpr/nfa.h"
#include "pathexpr/parser.h"
#include "query/evaluator.h"
#include "tests/test_util.h"

namespace dki {
namespace {

// --- brute-force language membership over the AST ------------------------

using Word = std::vector<LabelId>;

bool BruteMatches(const AstNode& n, std::span<const LabelId> word,
                  const LabelTable& labels);

bool BruteMatchesStar(const AstNode& child, std::span<const LabelId> word,
                      const LabelTable& labels) {
  if (word.empty()) return true;
  for (size_t i = 1; i <= word.size(); ++i) {
    if (BruteMatches(child, word.subspan(0, i), labels) &&
        BruteMatchesStar(child, word.subspan(i), labels)) {
      return true;
    }
  }
  return false;
}

bool BruteMatches(const AstNode& n, std::span<const LabelId> word,
                  const LabelTable& labels) {
  switch (n.kind) {
    case AstKind::kLabel: {
      LabelId id = labels.Find(n.label);
      return word.size() == 1 && id != kInvalidLabel && word[0] == id;
    }
    case AstKind::kWildcard:
      return word.size() == 1;
    case AstKind::kSeq:
      for (size_t i = 0; i <= word.size(); ++i) {
        if (BruteMatches(*n.left, word.subspan(0, i), labels) &&
            BruteMatches(*n.right, word.subspan(i), labels)) {
          return true;
        }
      }
      return false;
    case AstKind::kAlt:
      return BruteMatches(*n.left, word, labels) ||
             BruteMatches(*n.right, word, labels);
    case AstKind::kStar:
      return BruteMatchesStar(*n.left, word, labels);
    case AstKind::kPlus:
      // child . child* — the first piece may be empty when the child is
      // nullable (x?+ accepts the empty word).
      for (size_t i = 0; i <= word.size(); ++i) {
        if (BruteMatches(*n.left, word.subspan(0, i), labels) &&
            BruteMatchesStar(*n.left, word.subspan(i), labels)) {
          return true;
        }
      }
      return false;
    case AstKind::kOpt:
      return word.empty() || BruteMatches(*n.left, word, labels);
  }
  return false;
}

// --- reference NFA simulation --------------------------------------------

bool AutomatonAccepts(const Automaton& a, const Word& word) {
  std::set<int> states(a.start_states().begin(), a.start_states().end());
  for (LabelId symbol : word) {
    std::set<int> next;
    std::vector<int> moved;
    for (int q : states) {
      moved.clear();
      a.Move(q, symbol, &moved);
      next.insert(moved.begin(), moved.end());
    }
    states = std::move(next);
    if (states.empty()) return false;
  }
  for (int q : states) {
    if (a.is_accept(q)) return true;
  }
  return false;
}

// --- random expressions ----------------------------------------------------

AstPtr RandomAst(Rng* rng, int budget, bool allow_star) {
  if (budget <= 1 || rng->Bernoulli(0.35)) {
    if (rng->Bernoulli(0.2)) return AstNode::Wildcard();
    return AstNode::Label(std::string(
        1, static_cast<char>('a' + rng->UniformInt(0, 2))));
  }
  switch (rng->UniformInt(0, allow_star ? 4 : 2)) {
    case 0:
      return AstNode::Seq(RandomAst(rng, budget / 2, allow_star),
                          RandomAst(rng, budget - budget / 2, allow_star));
    case 1:
      return AstNode::Alt(RandomAst(rng, budget / 2, allow_star),
                          RandomAst(rng, budget - budget / 2, allow_star));
    case 2:
      return AstNode::Opt(RandomAst(rng, budget - 1, allow_star));
    case 3:
      return AstNode::Star(RandomAst(rng, budget - 1, allow_star));
    default:
      return AstNode::Plus(RandomAst(rng, budget - 1, allow_star));
  }
}

class RegexProperty : public ::testing::TestWithParam<int> {};

TEST_P(RegexProperty, AutomatonEqualsBruteForceOnAllShortWords) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  LabelTable labels;
  LabelId a = labels.Intern("a");
  LabelId b = labels.Intern("b");
  LabelId c = labels.Intern("c");
  const std::vector<LabelId> alphabet = {a, b, c};

  for (int trial = 0; trial < 30; ++trial) {
    AstPtr ast = RandomAst(&rng, 6, /*allow_star=*/true);
    Automaton m = CompileAst(*ast, labels);
    Automaton rev = m.Reverse();

    // Exhaustive words up to length 4 (121 words).
    std::vector<Word> words = {{}};
    for (size_t begin = 0, len = 0; len < 4; ++len) {
      size_t end = words.size();
      for (size_t w = begin; w < end; ++w) {
        for (LabelId l : alphabet) {
          Word longer = words[w];
          longer.push_back(l);
          words.push_back(std::move(longer));
        }
      }
      begin = end;
    }
    for (const Word& word : words) {
      bool expected = BruteMatches(*ast, word, labels);
      EXPECT_EQ(AutomatonAccepts(m, word), expected)
          << AstToString(*ast) << " on a word of length " << word.size();
      Word reversed(word.rbegin(), word.rend());
      EXPECT_EQ(AutomatonAccepts(rev, reversed), expected)
          << "reverse of " << AstToString(*ast);
    }
  }
}

// The compiled automaton is trimmed: one state per label or `_` position
// plus the start state, every one reachable from the start and able to
// reach an accept state.
TEST_P(RegexProperty, EveryStateIsUseful) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 500);
  LabelTable labels;
  labels.Intern("a");
  labels.Intern("b");
  labels.Intern("c");
  auto positions = [](const AstNode& node, auto&& self) -> int {
    if (node.kind == AstKind::kLabel || node.kind == AstKind::kWildcard) {
      return 1;
    }
    return self(*node.left, self) +
           (node.right != nullptr ? self(*node.right, self) : 0);
  };
  for (int trial = 0; trial < 200; ++trial) {
    AstPtr ast = RandomAst(&rng, 8, /*allow_star=*/true);
    Automaton m = CompileAst(*ast, labels);
    EXPECT_TRUE(testing_util::EveryStateUseful(m)) << AstToString(*ast);
    EXPECT_TRUE(testing_util::EveryStateUseful(m.Reverse()))
        << AstToString(*ast);
    EXPECT_EQ(m.num_states(), positions(*ast, positions) + 1)
        << AstToString(*ast);
  }
}

TEST_P(RegexProperty, MaxWordLengthAgreesWithBruteForceOnStarFree) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 1000);
  LabelTable labels;
  labels.Intern("a");
  labels.Intern("b");
  labels.Intern("c");
  const std::vector<LabelId> alphabet = {labels.Find("a"), labels.Find("b"),
                                         labels.Find("c")};
  for (int trial = 0; trial < 30; ++trial) {
    AstPtr ast = RandomAst(&rng, 5, /*allow_star=*/false);
    Automaton m = CompileAst(*ast, labels);
    int reported = m.MaxWordLength();
    // Star-free with budget 5 keeps the longest word within 6 symbols.
    int longest = -1;
    std::vector<Word> frontier = {{}};
    for (int len = 0; len <= 6; ++len) {
      for (const Word& word : frontier) {
        if (!word.empty() || len == 0) {
          if (BruteMatches(*ast, word, labels) &&
              static_cast<int>(word.size()) > longest) {
            longest = static_cast<int>(word.size());
          }
        }
      }
      std::vector<Word> next;
      for (const Word& word : frontier) {
        for (LabelId l : alphabet) {
          Word longer = word;
          longer.push_back(l);
          next.push_back(std::move(longer));
        }
      }
      frontier = std::move(next);
    }
    if (longest <= 0) {
      // Language empty or only the (unmatchable) empty word.
      EXPECT_TRUE(reported == -2 || reported == 0 || reported == longest)
          << AstToString(*ast) << " reported " << reported;
    } else {
      EXPECT_EQ(reported, longest) << AstToString(*ast);
    }
  }
}

TEST_P(RegexProperty, EvaluatorEqualsPathEnumerationOnRandomGraphs) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 2000);
  DataGraph g = testing_util::RandomGraph(25, 3, 6, &rng);
  LabelTable& labels = g.labels();

  for (int trial = 0; trial < 15; ++trial) {
    // Star-free expressions have bounded words: enumerate all incoming
    // label paths up to that bound per node and test membership.
    AstPtr ast = RandomAst(&rng, 5, /*allow_star=*/false);
    Automaton m = CompileAst(*ast, labels);
    int max_len = m.MaxWordLength();
    if (max_len <= 0) continue;

    std::string error;
    auto query = PathExpression::Parse(AstToString(*ast), labels, &error);
    ASSERT_TRUE(query.has_value())
        << AstToString(*ast) << ": " << error;
    auto got = EvaluateOnDataGraph(g, *query);

    std::vector<NodeId> expected;
    for (NodeId n = 0; n < g.NumNodes(); ++n) {
      bool matches = false;
      for (int len = 1; len <= max_len && !matches; ++len) {
        for (const auto& path : IncomingLabelPaths(g, n, len, 100000)) {
          if (BruteMatches(*ast, path, labels)) {
            matches = true;
            break;
          }
        }
      }
      if (matches) expected.push_back(n);
    }
    EXPECT_EQ(got, expected) << AstToString(*ast);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegexProperty, ::testing::Values(1, 2, 3, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace dki
