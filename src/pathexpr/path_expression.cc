#include "pathexpr/path_expression.h"

#include <algorithm>
#include <cstddef>

#include "pathexpr/parser.h"

namespace dki {
namespace {

LabelId Resolve(const std::string& name, const LabelTable& labels) {
  const LabelId id = labels.Find(name);
  return id == kInvalidLabel ? kUnknownLabel : id;
}

// Appends the labels of a plain chain l1.l2...lp to `out`; false (with
// `out` partly filled) for any other shape.
bool ChainLabels(const AstNode& node, const LabelTable& labels,
                 std::vector<LabelId>* out) {
  switch (node.kind) {
    case AstKind::kLabel:
      out->push_back(Resolve(node.label, labels));
      return true;
    case AstKind::kSeq:
      return ChainLabels(*node.left, labels, out) &&
             ChainLabels(*node.right, labels, out);
    default:
      return false;
  }
}

// Appends to `out` the labels occurring in EVERY word of `node`'s language
// (must-occur labels), sorted by id and unique. Computed compositionally:
//   label      -> {label}          wildcard -> {}
//   R.S        -> req(R) u req(S)  R|S      -> req(R) n req(S)
//   R* / R?    -> {}               R+       -> req(R)
// Every tag absent from the table is the one symbol kUnknownLabel, which
// keeps the sets sound: kUnknownLabel in req(R) means every word of R holds
// some tag no node carries. The set is an under-approximation in the safe
// direction: a word may contain more labels, never fewer. Each node's set
// is built in place at the end of `out`, so the walk allocates nothing
// beyond `out` itself.
void RequiredLabels(const AstNode& node, const LabelTable& labels,
                    std::vector<LabelId>* out) {
  const size_t begin = out->size();
  switch (node.kind) {
    case AstKind::kLabel:
      out->push_back(Resolve(node.label, labels));
      return;
    case AstKind::kWildcard:
    case AstKind::kStar:
    case AstKind::kOpt:
      // Zero repetitions are allowed, so nothing inside is required.
      return;
    case AstKind::kPlus:
      RequiredLabels(*node.left, labels, out);
      return;
    case AstKind::kSeq:
    case AstKind::kAlt:
      break;
  }
  RequiredLabels(*node.left, labels, out);
  const size_t mid = out->size();
  RequiredLabels(*node.right, labels, out);
  const auto first = out->begin() + static_cast<ptrdiff_t>(begin);
  const auto middle = out->begin() + static_cast<ptrdiff_t>(mid);
  if (node.kind == AstKind::kSeq) {
    std::sort(first, out->end());  // tiny; unlike a merge, no buffer
    out->erase(std::unique(first, out->end()), out->end());
    return;
  }
  // Only labels required on BOTH branches are required overall. The write
  // position never passes the left read position.
  auto write = first;
  for (auto l = first, r = middle; l != middle && r != out->end();) {
    if (*l < *r) {
      ++l;
    } else if (*r < *l) {
      ++r;
    } else {
      *write++ = *l;
      ++l;
      ++r;
    }
  }
  out->erase(write, out->end());
}

}  // namespace

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

  expr.is_chain_ = ChainLabels(*ast, labels, &expr.chain_labels_);
  if (!expr.is_chain_) expr.chain_labels_.clear();
  // Must-occur labels for the evaluation prefilter, resolved while the AST
  // is still alive (it is dropped after this function), then put in name
  // order: the prefilter's anchor is the first rarest one.
  RequiredLabels(*ast, labels, &expr.required_labels_);
  std::sort(expr.required_labels_.begin(), expr.required_labels_.end(),
            [&labels](LabelId a, LabelId b) {
              if (a < 0 || b < 0) return a < b;
              return labels.Name(a) < labels.Name(b);
            });
  return expr;
}

}  // namespace dki
