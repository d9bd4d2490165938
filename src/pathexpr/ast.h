#ifndef DKINDEX_PATHEXPR_AST_H_
#define DKINDEX_PATHEXPR_AST_H_

#include <memory>
#include <string>

namespace dki {

// Abstract syntax tree of a regular path expression. Owned top-down through
// unique_ptr; immutable after parsing.
enum class AstKind {
  kLabel,     // a concrete tag name
  kWildcard,  // _
  kSeq,       // R.R
  kAlt,       // R|R
  kStar,      // R*
  kPlus,      // R+
  kOpt,       // R?
};

struct AstNode;
using AstPtr = std::unique_ptr<AstNode>;

struct AstNode {
  AstKind kind;
  std::string label;   // for kLabel
  AstPtr left;         // child / lhs
  AstPtr right;        // rhs for kSeq/kAlt

  static AstPtr Label(std::string name);
  static AstPtr Wildcard();
  static AstPtr Seq(AstPtr l, AstPtr r);
  static AstPtr Alt(AstPtr l, AstPtr r);
  static AstPtr Star(AstPtr child);
  static AstPtr Plus(AstPtr child);
  static AstPtr Opt(AstPtr child);
};

// Canonical textual form (fully parenthesized postfix operators), used by
// tests and error messages.
std::string AstToString(const AstNode& node);

}  // namespace dki

#endif  // DKINDEX_PATHEXPR_AST_H_
