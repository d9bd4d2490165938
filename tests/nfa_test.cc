#include "pathexpr/nfa.h"

#include <gtest/gtest.h>

#include <set>

#include "pathexpr/parser.h"
#include "pathexpr/path_expression.h"
#include "tests/test_util.h"

namespace dki {
namespace {

// Reference NFA simulation: does the automaton accept this word?
bool Accepts(const Automaton& a, const std::vector<LabelId>& word) {
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

class NfaTest : public ::testing::Test {
 protected:
  NfaTest() {
    a_ = labels_.Intern("a");
    b_ = labels_.Intern("b");
    c_ = labels_.Intern("c");
  }

  Automaton Compile(const std::string& text) {
    std::string error;
    AstPtr ast = ParsePathExpression(text, &error);
    EXPECT_NE(ast, nullptr) << error;
    return CompileAst(*ast, labels_);
  }

  LabelTable labels_;
  LabelId a_, b_, c_;
};

TEST_F(NfaTest, SingleLabel) {
  Automaton m = Compile("a");
  EXPECT_TRUE(Accepts(m, {a_}));
  EXPECT_FALSE(Accepts(m, {b_}));
  EXPECT_FALSE(Accepts(m, {}));
  EXPECT_FALSE(Accepts(m, {a_, a_}));
}

TEST_F(NfaTest, Chain) {
  Automaton m = Compile("a.b.c");
  EXPECT_TRUE(Accepts(m, {a_, b_, c_}));
  EXPECT_FALSE(Accepts(m, {a_, b_}));
  EXPECT_FALSE(Accepts(m, {a_, c_, b_}));
}

TEST_F(NfaTest, Alternation) {
  Automaton m = Compile("a|b.c");
  EXPECT_TRUE(Accepts(m, {a_}));
  EXPECT_TRUE(Accepts(m, {b_, c_}));
  EXPECT_FALSE(Accepts(m, {b_}));
}

TEST_F(NfaTest, StarAndPlus) {
  Automaton star = Compile("a.b*");
  EXPECT_TRUE(Accepts(star, {a_}));
  EXPECT_TRUE(Accepts(star, {a_, b_, b_, b_}));
  EXPECT_FALSE(Accepts(star, {a_, b_, c_}));

  Automaton plus = Compile("a.b+");
  EXPECT_FALSE(Accepts(plus, {a_}));
  EXPECT_TRUE(Accepts(plus, {a_, b_}));
  EXPECT_TRUE(Accepts(plus, {a_, b_, b_}));
}

TEST_F(NfaTest, Optional) {
  Automaton m = Compile("a.b?.c");
  EXPECT_TRUE(Accepts(m, {a_, c_}));
  EXPECT_TRUE(Accepts(m, {a_, b_, c_}));
  EXPECT_FALSE(Accepts(m, {a_, b_, b_, c_}));
}

TEST_F(NfaTest, WildcardMatchesAnything) {
  Automaton m = Compile("a._.c");
  EXPECT_TRUE(Accepts(m, {a_, b_, c_}));
  EXPECT_TRUE(Accepts(m, {a_, a_, c_}));
  EXPECT_TRUE(Accepts(m, {a_, c_, c_}));
  EXPECT_FALSE(Accepts(m, {a_, c_}));
}

TEST_F(NfaTest, DescendantOrSelf) {
  Automaton m = Compile("a//c");
  EXPECT_TRUE(Accepts(m, {a_, c_}));
  EXPECT_TRUE(Accepts(m, {a_, b_, c_}));
  EXPECT_TRUE(Accepts(m, {a_, b_, b_, b_, c_}));
  EXPECT_FALSE(Accepts(m, {a_, b_}));
}

TEST_F(NfaTest, UnknownLabelMatchesNothing) {
  Automaton m = Compile("zzz");
  EXPECT_FALSE(Accepts(m, {a_}));
  EXPECT_FALSE(Accepts(m, {b_}));
  // But wildcard still matches anything.
  Automaton w = Compile("zzz|_");
  EXPECT_TRUE(Accepts(w, {a_}));
}

// Only the start state and one state per label or `_` position survive
// compilation (Thompson construction makes two per position, plus two per
// operator), and each of them is useful.
TEST_F(NfaTest, TrimmedToOneStatePerPositionPlusStart) {
  for (const char* text : {"a.b.c", "(a|b).c", "a//c", "a.b?.c", "_*.a.b"}) {
    Automaton m = Compile(text);
    EXPECT_EQ(m.num_states(), 4) << text << "\n" << m.DebugString();
    EXPECT_TRUE(testing_util::EveryStateUseful(m)) << text;
    EXPECT_EQ(m.start_states().size(), 1u) << text;
  }
  EXPECT_EQ(Compile("a").num_states(), 2);
  EXPECT_EQ(Compile("(a.b|a.c)*").num_states(), 5);
}

TEST_F(NfaTest, ReverseAcceptsReversedLanguage) {
  for (const char* text : {"a.b.c", "a|b.c", "a.b*", "a//c", "a._?.b"}) {
    Automaton m = Compile(text);
    Automaton r = m.Reverse();
    std::vector<std::vector<LabelId>> words = {
        {a_}, {b_}, {c_}, {a_, b_}, {a_, b_, c_}, {a_, c_},
        {c_, b_, a_}, {a_, b_, b_}, {a_, a_, c_}, {a_, b_, b_, c_}};
    for (const auto& w : words) {
      std::vector<LabelId> rev(w.rbegin(), w.rend());
      EXPECT_EQ(Accepts(m, w), Accepts(r, rev))
          << text << " disagrees on a word of length " << w.size();
    }
  }
}

TEST_F(NfaTest, MaxWordLengthFinite) {
  EXPECT_EQ(Compile("a").MaxWordLength(), 1);
  EXPECT_EQ(Compile("a.b.c").MaxWordLength(), 3);
  EXPECT_EQ(Compile("a.b?.c").MaxWordLength(), 3);
  EXPECT_EQ(Compile("a|b.c").MaxWordLength(), 2);
  EXPECT_EQ(Compile("a._._._.b").MaxWordLength(), 5);
}

TEST_F(NfaTest, MaxWordLengthInfinite) {
  EXPECT_EQ(Compile("a*").MaxWordLength(), -1);
  EXPECT_EQ(Compile("a.b+").MaxWordLength(), -1);
  EXPECT_EQ(Compile("a//b").MaxWordLength(), -1);
}

TEST_F(NfaTest, StartMoveAndCanStartWith) {
  Automaton m = Compile("a.b|c.b");
  EXPECT_TRUE(m.CanStartWith(a_));
  EXPECT_TRUE(m.CanStartWith(c_));
  EXPECT_FALSE(m.CanStartWith(b_));
  EXPECT_FALSE(m.AnyFromStart());
  EXPECT_FALSE(m.StartMove(a_).empty());
  EXPECT_TRUE(m.StartMove(b_).empty());

  Automaton w = Compile("_.b");
  EXPECT_TRUE(w.AnyFromStart());
  EXPECT_TRUE(w.CanStartWith(b_));
}

TEST(PathExpressionTest, ParseAndMetadata) {
  LabelTable labels;
  labels.Intern("a");
  labels.Intern("b");
  std::string error;
  auto chain = PathExpression::Parse("a.b", labels, &error);
  ASSERT_TRUE(chain.has_value()) << error;
  EXPECT_TRUE(chain->is_chain());
  EXPECT_EQ(chain->chain_labels().size(), 2u);
  EXPECT_EQ(chain->max_word_length(), 2);
  EXPECT_EQ(chain->text(), "a.b");

  auto regex = PathExpression::Parse("a//b", labels, &error);
  ASSERT_TRUE(regex.has_value()) << error;
  EXPECT_FALSE(regex->is_chain());
  EXPECT_EQ(regex->max_word_length(), -1);

  auto bad = PathExpression::Parse("a..b", labels, &error);
  EXPECT_FALSE(bad.has_value());
  EXPECT_FALSE(error.empty());
}

TEST(PathExpressionTest, UnknownChainLabelMapsToUnknownSymbol) {
  LabelTable labels;
  labels.Intern("a");
  std::string error;
  auto expr = PathExpression::Parse("a.nosuch", labels, &error);
  ASSERT_TRUE(expr.has_value());
  EXPECT_EQ(expr->chain_labels()[1], kUnknownLabel);
}

}  // namespace
}  // namespace dki
