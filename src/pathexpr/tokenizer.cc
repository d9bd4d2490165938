#include "pathexpr/tokenizer.h"

#include <cctype>
#include <string>

namespace dki {
namespace {

bool IsLabelStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsLabelChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' ||
         c == ':';
}

}  // namespace

std::string_view TokenKindName(TokenKind kind) {
  switch (kind) {
    case TokenKind::kLabel:
      return "label";
    case TokenKind::kWildcard:
      return "'_'";
    case TokenKind::kDot:
      return "'.'";
    case TokenKind::kDoubleSlash:
      return "'//'";
    case TokenKind::kPipe:
      return "'|'";
    case TokenKind::kStar:
      return "'*'";
    case TokenKind::kPlus:
      return "'+'";
    case TokenKind::kQuestion:
      return "'?'";
    case TokenKind::kLParen:
      return "'('";
    case TokenKind::kRParen:
      return "')'";
    case TokenKind::kEnd:
      return "end of input";
  }
  return "?";
}

bool Tokenize(std::string_view input, std::vector<Token>* tokens,
              std::string* error) {
  tokens->clear();
  size_t i = 0;
  while (i < input.size()) {
    char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    int pos = static_cast<int>(i);
    switch (c) {
      case '.':
        tokens->push_back({TokenKind::kDot, "", pos});
        ++i;
        continue;
      case '|':
        tokens->push_back({TokenKind::kPipe, "", pos});
        ++i;
        continue;
      case '*':
        tokens->push_back({TokenKind::kStar, "", pos});
        ++i;
        continue;
      case '+':
        tokens->push_back({TokenKind::kPlus, "", pos});
        ++i;
        continue;
      case '?':
        tokens->push_back({TokenKind::kQuestion, "", pos});
        ++i;
        continue;
      case '(':
        tokens->push_back({TokenKind::kLParen, "", pos});
        ++i;
        continue;
      case ')':
        tokens->push_back({TokenKind::kRParen, "", pos});
        ++i;
        continue;
      case '/':
        if (i + 1 < input.size() && input[i + 1] == '/') {
          tokens->push_back({TokenKind::kDoubleSlash, "", pos});
          i += 2;
          continue;
        }
        if (error != nullptr) {
          *error = "unexpected '/' at position " + std::to_string(pos) +
                   " (did you mean '//'?)";
        }
        return false;
      default:
        break;
    }
    if (IsLabelStart(c)) {
      size_t start = i;
      while (i < input.size() && IsLabelChar(input[i])) ++i;
      const std::string_view text = input.substr(start, i - start);
      if (text == "_") {
        tokens->push_back({TokenKind::kWildcard, "", pos});
      } else {
        tokens->push_back({TokenKind::kLabel, text, pos});
      }
      continue;
    }
    if (error != nullptr) {
      *error = std::string("unexpected character '") + c + "' at position " +
               std::to_string(pos);
    }
    return false;
  }
  tokens->push_back({TokenKind::kEnd, "", static_cast<int>(input.size())});
  return true;
}

}  // namespace dki
