#include "pathexpr/parser.h"

#include <vector>

#include "pathexpr/tokenizer.h"

namespace dki {
namespace {

// Recursive-descent parser over the token stream. Errors are reported by
// position; no exceptions are thrown.
class Parser {
 public:
  Parser(std::vector<Token> tokens, std::string* error)
      : tokens_(std::move(tokens)), error_(error) {}

  AstPtr Parse() {
    AstPtr expr = ParseExpr();
    if (expr == nullptr) return nullptr;
    if (Peek().kind != TokenKind::kEnd) {
      Fail("trailing input");
      return nullptr;
    }
    return expr;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }

  void Fail(const std::string& message) {
    if (error_ == nullptr) return;
    *error_ = message + " at position " + std::to_string(Peek().position) +
              " (found " + std::string(TokenKindName(Peek().kind)) + ")";
  }

  // expr ::= seq ('|' seq)*
  AstPtr ParseExpr() {
    AstPtr left = ParseSeq();
    if (left == nullptr) return nullptr;
    while (Peek().kind == TokenKind::kPipe) {
      Advance();
      AstPtr right = ParseSeq();
      if (right == nullptr) return nullptr;
      left = AstNode::Alt(std::move(left), std::move(right));
    }
    return left;
  }

  // '//': descendant-or-self step, desugared to `. _* .`.
  static AstPtr DescendantStep(AstPtr left, AstPtr right) {
    AstPtr skip = AstNode::Star(AstNode::Wildcard());
    return AstNode::Seq(std::move(left),
                        AstNode::Seq(std::move(skip), std::move(right)));
  }

  // seq ::= unary (('.' | '//') unary)*
  AstPtr ParseSeq() {
    // Tolerate a leading '//' ("//name" style queries).
    if (Peek().kind == TokenKind::kDoubleSlash) Advance();
    AstPtr left = ParseUnary();
    if (left == nullptr) return nullptr;
    while (true) {
      TokenKind k = Peek().kind;
      if (k == TokenKind::kDot) {
        Advance();
        AstPtr right = ParseUnary();
        if (right == nullptr) return nullptr;
        left = AstNode::Seq(std::move(left), std::move(right));
      } else if (k == TokenKind::kDoubleSlash) {
        Advance();
        AstPtr right = ParseUnary();
        if (right == nullptr) return nullptr;
        left = DescendantStep(std::move(left), std::move(right));
      } else {
        return left;
      }
    }
  }

  // unary ::= atom ('*' | '+' | '?')*
  AstPtr ParseUnary() {
    AstPtr node = ParseAtom();
    if (node == nullptr) return nullptr;
    while (true) {
      switch (Peek().kind) {
        case TokenKind::kStar:
          Advance();
          node = AstNode::Star(std::move(node));
          break;
        case TokenKind::kPlus:
          Advance();
          node = AstNode::Plus(std::move(node));
          break;
        case TokenKind::kQuestion:
          Advance();
          node = AstNode::Opt(std::move(node));
          break;
        default:
          return node;
      }
    }
  }

  // atom ::= LABEL | '_' | '(' expr ')'
  AstPtr ParseAtom() {
    switch (Peek().kind) {
      case TokenKind::kLabel:
        return AstNode::Label(std::string(Advance().text));
      case TokenKind::kWildcard:
        Advance();
        return AstNode::Wildcard();
      case TokenKind::kLParen: {
        Advance();
        AstPtr inner = ParseExpr();
        if (inner == nullptr) return nullptr;
        if (Peek().kind != TokenKind::kRParen) {
          Fail("expected ')'");
          return nullptr;
        }
        Advance();
        return inner;
      }
      default:
        Fail("expected label, '_' or '('");
        return nullptr;
    }
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  std::string* error_;
};

}  // namespace

AstPtr ParsePathExpression(std::string_view input, std::string* error) {
  std::vector<Token> tokens;
  if (!Tokenize(input, &tokens, error)) return nullptr;
  Parser parser(std::move(tokens), error);
  return parser.Parse();
}

}  // namespace dki
