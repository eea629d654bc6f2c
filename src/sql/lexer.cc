#include "sql/lexer.h"

#include <cctype>
#include <unordered_set>

namespace relserve {
namespace sql {

namespace {

const std::unordered_set<std::string>& Keywords() {
  static const auto* kKeywords = new std::unordered_set<std::string>{
      "SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "LIMIT", "AS",
      "GROUP", "BY", "CREATE", "TABLE", "INSERT", "INTO", "VALUES",
      "EXPLAIN", "ANALYZE", "ORDER", "ASC", "DESC", "UPDATE", "SET",
      "DELETE", "SHOW", "MODELS",
  };
  return *kKeywords;
}

std::string ToUpper(std::string s) {
  for (char& c : s) c = static_cast<char>(std::toupper(c));
  return s;
}

}  // namespace

Result<std::vector<Token>> Lex(const std::string& input) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = input.size();
  while (i < n) {
    const char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(
                           input[j])) ||
                       input[j] == '_' || input[j] == '@')) {
        ++j;
      }
      std::string word = input.substr(i, j - i);
      const std::string upper = ToUpper(word);
      if (Keywords().count(upper) > 0) {
        tokens.push_back(Token{TokenKind::kKeyword, upper});
      } else {
        tokens.push_back(Token{TokenKind::kIdentifier, std::move(word)});
      }
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(input[i + 1])))) {
      size_t j = i + 1;
      bool seen_dot = false;
      while (j < n && (std::isdigit(static_cast<unsigned char>(
                           input[j])) ||
                       (input[j] == '.' && !seen_dot))) {
        seen_dot |= input[j] == '.';
        ++j;
      }
      tokens.push_back(Token{TokenKind::kNumber, input.substr(i, j - i)});
      i = j;
      continue;
    }
    if (c == '\'') {
      size_t j = i + 1;
      while (j < n && input[j] != '\'') ++j;
      if (j >= n) {
        return Status::InvalidArgument("unterminated string literal");
      }
      tokens.push_back(
          Token{TokenKind::kString, input.substr(i + 1, j - i - 1)});
      i = j + 1;
      continue;
    }
    // Two-character comparison symbols first.
    if (i + 1 < n) {
      const std::string two = input.substr(i, 2);
      if (two == "<=" || two == ">=" || two == "!=" || two == "<>") {
        tokens.push_back(
            Token{TokenKind::kSymbol, two == "<>" ? "!=" : two});
        i += 2;
        continue;
      }
    }
    const std::string one(1, c);
    if (one == "(" || one == ")" || one == "," || one == "*" ||
        one == "=" || one == "<" || one == ">" || one == "." ||
        one == "[" || one == "]") {
      tokens.push_back(Token{TokenKind::kSymbol, one});
      ++i;
      continue;
    }
    return Status::InvalidArgument(std::string("unexpected character '") +
                                   c + "' in SQL");
  }
  tokens.push_back(Token{TokenKind::kEnd, ""});
  return tokens;
}

}  // namespace sql
}  // namespace relserve
