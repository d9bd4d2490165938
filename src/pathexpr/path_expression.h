#ifndef DKINDEX_PATHEXPR_PATH_EXPRESSION_H_
#define DKINDEX_PATHEXPR_PATH_EXPRESSION_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/label_table.h"
#include "pathexpr/compiled_query.h"
#include "pathexpr/nfa.h"

namespace dki {

// A parsed and compiled regular path expression: the user-facing query
// object. Holds the forward automaton (what the reference evaluators and
// twig predicates run; Automaton::Reverse gives the bottom-up validator
// its reversed form) and the same automaton compiled into label-class move
// tables for both directions (what the frozen read path runs — see
// pathexpr/compiled_query.h), plus metadata the index layer uses:
//   * chain_labels(): the label sequence if the query is a plain chain;
//   * max_word_length(): longest word in the language (-1 if unbounded) —
//     a query is answerable soundly by an index node n iff the matched path
//     length does not exceed n's local similarity (paper Theorem 1).
class PathExpression {
 public:
  // Parses and compiles `text` against `labels`. Returns nullopt and sets
  // `error` (when not null) on syntax errors.
  static std::optional<PathExpression> Parse(std::string_view text,
                                             const LabelTable& labels,
                                             std::string* error);

  PathExpression(const PathExpression&) = default;
  PathExpression& operator=(const PathExpression&) = default;
  PathExpression(PathExpression&&) = default;
  PathExpression& operator=(PathExpression&&) = default;

  const std::string& text() const { return text_; }
  const Automaton& forward() const { return forward_; }
  const CompiledQuery& compiled() const { return compiled_; }

  // True when the expression is a plain chain l1.l2...lp.
  bool is_chain() const { return is_chain_; }
  // The chain labels (resolved ids; kUnknownLabel for absent tags). Empty
  // unless is_chain().
  const std::vector<LabelId>& chain_labels() const { return chain_labels_; }

  // Longest word length in symbols; -1 if unbounded, -2 if the language is
  // empty.
  int max_word_length() const { return max_word_length_; }

  // Labels occurring in every word of the language, resolved against the
  // parse-time label table: kUnknownLabel first when present, then the
  // known labels sorted by name. Every tag absent from the table resolves
  // to kUnknownLabel — a required label no data node can carry, i.e. the
  // query matches nothing.
  const std::vector<LabelId>& required_labels() const {
    return required_labels_;
  }

 private:
  PathExpression() = default;

  std::string text_;
  Automaton forward_;
  CompiledQuery compiled_;
  bool is_chain_ = false;
  std::vector<LabelId> chain_labels_;
  std::vector<LabelId> required_labels_;
  int max_word_length_ = -2;
};

}  // namespace dki

#endif  // DKINDEX_PATHEXPR_PATH_EXPRESSION_H_
