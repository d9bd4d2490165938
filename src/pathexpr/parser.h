#ifndef DKINDEX_PATHEXPR_PARSER_H_
#define DKINDEX_PATHEXPR_PARSER_H_

#include <string>
#include <string_view>

#include "pathexpr/ast.h"

namespace dki {

// Parses a regular path expression into an AST.
//
// Grammar (loosest to tightest binding):
//   expr   ::= seq ('|' seq)*
//   seq    ::= unary (('.' | '//') unary)*       // '//' => '. _* .'
//   unary  ::= atom ('*' | '+' | '?')*
//   atom   ::= LABEL | '_' | '(' expr ')'
//
// A leading '//' is also accepted ("//name"): evaluation already lets a
// match start anywhere, so it desugars to the bare right-hand side.
//
// Returns nullptr and sets `error` (when not null) on syntax errors (never
// aborts — queries are user input).
AstPtr ParsePathExpression(std::string_view input, std::string* error);

}  // namespace dki

#endif  // DKINDEX_PATHEXPR_PARSER_H_
