#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "pathexpr/ast.h"
#include "pathexpr/parser.h"
#include "pathexpr/path_expression.h"
#include "pathexpr/tokenizer.h"
#include "tests/test_util.h"

namespace dki {
namespace {

std::string ParseToString(const std::string& input) {
  std::string error;
  AstPtr ast = ParsePathExpression(input, &error);
  if (ast == nullptr) return "ERROR: " + error;
  return AstToString(*ast);
}

TEST(TokenizerTest, AllTokenKinds) {
  std::vector<Token> tokens;
  std::string error;
  ASSERT_TRUE(Tokenize("a.b|c*d+e?(_)//f", &tokens, &error)) << error;
  std::vector<TokenKind> kinds;
  for (const Token& t : tokens) kinds.push_back(t.kind);
  EXPECT_EQ(kinds,
            (std::vector<TokenKind>{
                TokenKind::kLabel, TokenKind::kDot, TokenKind::kLabel,
                TokenKind::kPipe, TokenKind::kLabel, TokenKind::kStar,
                TokenKind::kLabel, TokenKind::kPlus, TokenKind::kLabel,
                TokenKind::kQuestion, TokenKind::kLParen,
                TokenKind::kWildcard, TokenKind::kRParen,
                TokenKind::kDoubleSlash, TokenKind::kLabel,
                TokenKind::kEnd}));
}

TEST(TokenizerTest, LabelsWithDigitsAndDashes) {
  std::vector<Token> tokens;
  std::string error;
  ASSERT_TRUE(Tokenize("open_auction.closed-auction2", &tokens, &error));
  EXPECT_EQ(tokens[0].text, "open_auction");
  EXPECT_EQ(tokens[2].text, "closed-auction2");
}

TEST(TokenizerTest, WhitespaceIgnored) {
  std::vector<Token> tokens;
  std::string error;
  ASSERT_TRUE(Tokenize("  a .  b ", &tokens, &error));
  EXPECT_EQ(tokens.size(), 4u);  // a . b END
}

TEST(TokenizerTest, SingleSlashRejected) {
  std::vector<Token> tokens;
  std::string error;
  EXPECT_FALSE(Tokenize("a/b", &tokens, &error));
  EXPECT_NE(error.find("'//'"), std::string::npos);
}

TEST(TokenizerTest, UnexpectedCharacter) {
  std::vector<Token> tokens;
  std::string error;
  EXPECT_FALSE(Tokenize("a.b$", &tokens, &error));
  EXPECT_NE(error.find("'$'"), std::string::npos);
}

TEST(ParserTest, ChainBindsLeft) {
  EXPECT_EQ(ParseToString("a.b.c"), "((a.b).c)");
}

TEST(ParserTest, AlternationBindsLoosest) {
  EXPECT_EQ(ParseToString("a.b|c"), "((a.b)|c)");
  EXPECT_EQ(ParseToString("a.(b|c)"), "(a.(b|c))");
}

TEST(ParserTest, PostfixOperators) {
  EXPECT_EQ(ParseToString("a*"), "a*");
  EXPECT_EQ(ParseToString("a+?"), "a+?");
  EXPECT_EQ(ParseToString("(a.b)*"), "(a.b)*");
}

TEST(ParserTest, WildcardAndOptional) {
  EXPECT_EQ(ParseToString("movieDB.(_)?.movie"), "((movieDB._?).movie)");
}

TEST(ParserTest, DescendantDesugarsToWildcardStar) {
  EXPECT_EQ(ParseToString("a//b"), "(a.(_*.b))");
  EXPECT_EQ(ParseToString("//name"), "name");  // leading // is a no-op
}

TEST(ParserTest, Errors) {
  EXPECT_NE(ParseToString("a.").find("ERROR"), std::string::npos);
  EXPECT_NE(ParseToString("(a"). find("ERROR"), std::string::npos);
  EXPECT_NE(ParseToString("|a").find("ERROR"), std::string::npos);
  EXPECT_NE(ParseToString("a b").find("ERROR"), std::string::npos);
  EXPECT_NE(ParseToString("").find("ERROR"), std::string::npos);
  EXPECT_NE(ParseToString("*a").find("ERROR"), std::string::npos);
}

TEST(PathExpressionTest, ChainLabels) {
  LabelTable labels;
  const LabelId director = labels.Intern("director");
  const LabelId movie = labels.Intern("movie");
  const LabelId title = labels.Intern("title");
  PathExpression chain =
      testing_util::MustParse("director.movie.title", labels);
  EXPECT_TRUE(chain.is_chain());
  EXPECT_EQ(chain.chain_labels(),
            (std::vector<LabelId>{director, movie, title}));
  PathExpression unknown = testing_util::MustParse("director.zzz", labels);
  EXPECT_EQ(unknown.chain_labels(),
            (std::vector<LabelId>{director, kUnknownLabel}));

  for (const char* text : {"a.b*", "director._", "(director|movie).title"}) {
    PathExpression not_chain = testing_util::MustParse(text, labels);
    EXPECT_FALSE(not_chain.is_chain()) << text;
    EXPECT_TRUE(not_chain.chain_labels().empty()) << text;
  }
}

TEST(PathExpressionTest, RequiredLabels) {
  LabelTable labels;
  // Interned out of name order, so id order and name order differ.
  const LabelId title = labels.Intern("title");
  const LabelId movie = labels.Intern("movie");
  const LabelId actor = labels.Intern("actor");
  auto required = [&](const char* text) {
    return testing_util::MustParse(text, labels).required_labels();
  };
  using Ids = std::vector<LabelId>;
  EXPECT_EQ(required("title.movie.actor.movie"), (Ids{actor, movie, title}));
  EXPECT_EQ(required("_*.movie._.title"), (Ids{movie, title}));
  EXPECT_EQ(required("(actor.movie|movie.title)"), (Ids{movie}));
  EXPECT_EQ(required("(actor|title).movie"), (Ids{movie}));
  EXPECT_EQ(required("actor+.movie?.title*"), (Ids{actor}));
  EXPECT_EQ(required("(actor|_)"), Ids{});
  // Tags absent from the table are one symbol no node carries: a text
  // whose every word holds one requires it, and it sorts first.
  EXPECT_EQ(required("movie.zzz"), (Ids{kUnknownLabel, movie}));
  EXPECT_EQ(required("(zzz|yyy).movie"), (Ids{kUnknownLabel, movie}));
  EXPECT_EQ(required("(zzz|movie)"), Ids{});
}

TEST(PathExpressionTest, ParseAcceptsNullErrorPointer) {
  LabelTable labels;
  labels.Intern("movie");
  for (const char* bad : {"movie..", "movie/x", "movie.$", "(movie", ""}) {
    EXPECT_FALSE(PathExpression::Parse(bad, labels, nullptr).has_value())
        << bad;
    std::string error;
    EXPECT_FALSE(PathExpression::Parse(bad, labels, &error).has_value());
    EXPECT_FALSE(error.empty()) << bad;
  }
  EXPECT_TRUE(PathExpression::Parse("movie", labels, nullptr).has_value());
}

// Seeded mutation sweep over texts shaped like servebench's read_wide pool:
// byte flips, truncations and insertions, each parsed with and without an
// error pointer. Every input must either parse, both ways, to an automaton
// whose states are all useful, or fail, both ways, with a message.
TEST(PathExpressionFuzz, MutatedWidePoolTexts) {
  LabelTable labels;
  for (const char* name : {"site", "regions", "africa", "item", "name",
                           "open_auctions", "open_auction", "bidder"}) {
    labels.Intern(name);
  }
  const std::vector<std::string> chains = {
      "site.regions.africa.item", "open_auctions.open_auction.bidder",
      "item.name", "regions.africa.item.name.zzz"};
  std::vector<std::string> seeds;
  for (const std::string& c : chains) {
    seeds.push_back(c);
    seeds.push_back("_*." + c);
    seeds.push_back("_." + c);
    const size_t dot = c.find('.');
    const size_t next = c.find('.', dot + 1);
    if (next != std::string::npos) {
      seeds.push_back(c.substr(0, dot) + "._" + c.substr(next));
    }
  }
  seeds.push_back("(" + chains[0] + "|" + chains[1] + ")");
  seeds.push_back("(" + chains[2] + "|" + chains[3] + ")");

  // Bytes the grammar gives meaning to, plus letters; any byte otherwise.
  const std::string meaningful = "._|*+?()/ \tabz0-:";
  Rng rng(20260611);
  int parsed = 0;
  int failed = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    std::string text = rng.Pick(seeds);
    const int mutations = static_cast<int>(rng.UniformInt(1, 3));
    for (int m = 0; m < mutations; ++m) {
      const char byte =
          rng.Bernoulli(0.8)
              ? meaningful[static_cast<size_t>(rng.UniformInt(
                    0, static_cast<int64_t>(meaningful.size()) - 1))]
              : static_cast<char>(rng.UniformInt(0, 255));
      const size_t at = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(text.size())));
      switch (rng.UniformInt(0, 2)) {
        case 0:  // flip
          if (at < text.size()) text[at] = byte;
          break;
        case 1:  // truncate
          text.resize(at);
          break;
        default:  // insert
          text.insert(at, 1, byte);
          break;
      }
    }
    std::string error;
    std::optional<PathExpression> with =
        PathExpression::Parse(text, labels, &error);
    std::optional<PathExpression> without =
        PathExpression::Parse(text, labels, nullptr);
    ASSERT_EQ(with.has_value(), without.has_value()) << text;
    if (with.has_value()) {
      ++parsed;
      ASSERT_TRUE(testing_util::EveryStateUseful(with->forward())) << text;
      ASSERT_EQ(with->forward().num_states(),
                without->forward().num_states())
          << text;
      ASSERT_EQ(with->compiled().forward().num_states(),
                with->forward().num_states())
          << text;
    } else {
      ++failed;
      ASSERT_FALSE(error.empty()) << text;
    }
  }
  // Both outcomes were exercised.
  EXPECT_GT(parsed, 1000);
  EXPECT_GT(failed, 1000);
}

TEST(AstTest, FactoryShapes) {
  AstPtr n = AstNode::Alt(AstNode::Label("x"),
                          AstNode::Star(AstNode::Wildcard()));
  EXPECT_EQ(AstToString(*n), "(x|_*)");
}

}  // namespace
}  // namespace dki
