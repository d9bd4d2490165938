#include "pathexpr/ast.h"

#include "common/logging.h"

namespace dki {

AstPtr AstNode::Label(std::string name) {
  auto n = std::make_unique<AstNode>();
  n->kind = AstKind::kLabel;
  n->label = std::move(name);
  return n;
}

AstPtr AstNode::Wildcard() {
  auto n = std::make_unique<AstNode>();
  n->kind = AstKind::kWildcard;
  return n;
}

namespace {
AstPtr Binary(AstKind kind, AstPtr l, AstPtr r) {
  DKI_CHECK(l != nullptr);
  DKI_CHECK(r != nullptr);
  auto n = std::make_unique<AstNode>();
  n->kind = kind;
  n->left = std::move(l);
  n->right = std::move(r);
  return n;
}

AstPtr Unary(AstKind kind, AstPtr child) {
  DKI_CHECK(child != nullptr);
  auto n = std::make_unique<AstNode>();
  n->kind = kind;
  n->left = std::move(child);
  return n;
}
}  // namespace

AstPtr AstNode::Seq(AstPtr l, AstPtr r) {
  return Binary(AstKind::kSeq, std::move(l), std::move(r));
}
AstPtr AstNode::Alt(AstPtr l, AstPtr r) {
  return Binary(AstKind::kAlt, std::move(l), std::move(r));
}
AstPtr AstNode::Star(AstPtr child) {
  return Unary(AstKind::kStar, std::move(child));
}
AstPtr AstNode::Plus(AstPtr child) {
  return Unary(AstKind::kPlus, std::move(child));
}
AstPtr AstNode::Opt(AstPtr child) {
  return Unary(AstKind::kOpt, std::move(child));
}

std::string AstToString(const AstNode& node) {
  switch (node.kind) {
    case AstKind::kLabel:
      return node.label;
    case AstKind::kWildcard:
      return "_";
    case AstKind::kSeq:
      return "(" + AstToString(*node.left) + "." + AstToString(*node.right) +
             ")";
    case AstKind::kAlt:
      return "(" + AstToString(*node.left) + "|" + AstToString(*node.right) +
             ")";
    case AstKind::kStar:
      return AstToString(*node.left) + "*";
    case AstKind::kPlus:
      return AstToString(*node.left) + "+";
    case AstKind::kOpt:
      return AstToString(*node.left) + "?";
  }
  return "?";
}

}  // namespace dki
