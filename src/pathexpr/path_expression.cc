#include "pathexpr/path_expression.h"

#include "pathexpr/parser.h"

namespace dki {

std::optional<PathExpression> PathExpression::Parse(std::string_view text,
                                                    const LabelTable& labels,
                                                    std::string* error) {
  AstPtr ast = ParsePathExpression(text, error);
  if (ast == nullptr) return std::nullopt;

  PathExpression expr;
  expr.text_ = std::string(text);
  expr.forward_ = CompileAst(*ast, labels);
  expr.max_word_length_ = expr.forward_.MaxWordLength();
  // The expression is immutable after parse, so its start-move table and
  // its compiled tables are built exactly once here; every later
  // evaluation reads them by reference.
  expr.forward_.PrecomputeStartMoves();
  expr.compiled_ = CompiledQuery(expr.forward_);

  std::vector<std::string> chain;
  if (IsLabelChain(*ast, &chain)) {
    expr.is_chain_ = true;
    for (const std::string& name : chain) {
      LabelId id = labels.Find(name);
      expr.chain_labels_.push_back(id == kInvalidLabel ? kUnknownLabel : id);
    }
  }
  // Must-occur labels for the evaluation prefilter, resolved while the AST
  // is still alive (it is dropped after this function).
  for (const std::string& name : RequiredLabels(*ast)) {
    LabelId id = labels.Find(name);
    expr.required_labels_.push_back(id == kInvalidLabel ? kUnknownLabel : id);
  }
  return expr;
}

}  // namespace dki
