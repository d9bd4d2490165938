#ifndef DKINDEX_PATHEXPR_TOKENIZER_H_
#define DKINDEX_PATHEXPR_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

namespace dki {

// Lexical tokens of the paper's regular path expression language (Section 3):
//
//   R ::= label | _ | R.R | R|R | (R) | R? | R* | R+ | R//R
//
// `_` matches any label; `//` is the common descendant-or-self shorthand and
// desugars to `. _* .` during parsing. `+` is the usual one-or-more
// extension (the paper's R.R* idiom).
enum class TokenKind {
  kLabel,        // element tag name
  kWildcard,     // _
  kDot,          // .
  kDoubleSlash,  // //
  kPipe,         // |
  kStar,         // *
  kPlus,         // +
  kQuestion,     // ?
  kLParen,       // (
  kRParen,       // )
  kEnd,
};

struct Token {
  TokenKind kind;
  std::string_view text;  // label text for kLabel, a view into the input
  int position = 0;       // byte offset in the input, for error messages
};

// Tokenizes `input`. On success returns true and fills `tokens` (terminated
// by a kEnd token), which view into `input`; on failure returns false and
// sets `error` (when not null).
bool Tokenize(std::string_view input, std::vector<Token>* tokens,
              std::string* error);

// Human-readable token kind name for diagnostics.
std::string_view TokenKindName(TokenKind kind);

}  // namespace dki

#endif  // DKINDEX_PATHEXPR_TOKENIZER_H_
