#include "dddl/lexer.hpp"

#include <cctype>
#include <optional>

#include "util/error.hpp"
#include "util/number.hpp"

namespace adpm::dddl {

const char* tokenKindName(TokenKind k) noexcept {
  switch (k) {
    case TokenKind::End: return "end of input";
    case TokenKind::Identifier: return "identifier";
    case TokenKind::String: return "string";
    case TokenKind::Number: return "number";
    case TokenKind::LBrace: return "'{'";
    case TokenKind::RBrace: return "'}'";
    case TokenKind::LBracket: return "'['";
    case TokenKind::RBracket: return "']'";
    case TokenKind::LParen: return "'('";
    case TokenKind::RParen: return "')'";
    case TokenKind::Comma: return "','";
    case TokenKind::Semicolon: return "';'";
    case TokenKind::Colon: return "':'";
    case TokenKind::Assign: return "'='";
    case TokenKind::Plus: return "'+'";
    case TokenKind::Minus: return "'-'";
    case TokenKind::Star: return "'*'";
    case TokenKind::Slash: return "'/'";
    case TokenKind::Caret: return "'^'";
    case TokenKind::Le: return "'<='";
    case TokenKind::Ge: return "'>='";
    case TokenKind::EqEq: return "'=='";
  }
  return "?";
}

namespace {

class Cursor {
 public:
  explicit Cursor(std::string_view src) : src_(src) {}

  bool done() const noexcept { return pos_ >= src_.size(); }
  char peek() const noexcept { return done() ? '\0' : src_[pos_]; }
  char peek2() const noexcept {
    return pos_ + 1 >= src_.size() ? '\0' : src_[pos_ + 1];
  }

  char advance() noexcept {
    const char c = src_[pos_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }

  int line() const noexcept { return line_; }
  int column() const noexcept { return column_; }

 private:
  std::string_view src_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

bool isIdentStart(char c) noexcept {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool isIdentBody(char c) noexcept {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.';
}

}  // namespace

std::vector<Token> lex(std::string_view source) {
  std::vector<Token> tokens;
  Cursor cur(source);

  auto push = [&](TokenKind kind, int line, int column, std::string text = {},
                  double number = 0.0) {
    tokens.push_back({kind, std::move(text), number, line, column});
  };

  while (!cur.done()) {
    const int line = cur.line();
    const int column = cur.column();
    const char c = cur.peek();

    if (std::isspace(static_cast<unsigned char>(c))) {
      cur.advance();
      continue;
    }
    if (c == '/' && cur.peek2() == '/') {
      while (!cur.done() && cur.peek() != '\n') cur.advance();
      continue;
    }
    if (isIdentStart(c)) {
      std::string text;
      while (!cur.done() && isIdentBody(cur.peek())) text += cur.advance();
      push(TokenKind::Identifier, line, column, std::move(text));
      continue;
    }
    if (c == '"') {
      cur.advance();
      std::string text;
      while (!cur.done() && cur.peek() != '"' && cur.peek() != '\n') {
        text += cur.advance();
      }
      if (cur.done() || cur.peek() != '"') {
        throw adpm::ParseError("unterminated string", line, column);
      }
      cur.advance();
      push(TokenKind::String, line, column, std::move(text));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && std::isdigit(static_cast<unsigned char>(cur.peek2())))) {
      std::string text;
      while (!cur.done() &&
             (std::isdigit(static_cast<unsigned char>(cur.peek())) ||
              cur.peek() == '.' || cur.peek() == 'e' || cur.peek() == 'E' ||
              ((cur.peek() == '+' || cur.peek() == '-') &&
               (text.ends_with('e') || text.ends_with('E'))))) {
        text += cur.advance();
      }
      const std::optional<double> value = util::parseDouble(text);
      if (!value) {
        throw adpm::ParseError("malformed number '" + text + "'", line,
                               column);
      }
      push(TokenKind::Number, line, column, {}, *value);
      continue;
    }

    cur.advance();
    switch (c) {
      case '{': push(TokenKind::LBrace, line, column); break;
      case '}': push(TokenKind::RBrace, line, column); break;
      case '[': push(TokenKind::LBracket, line, column); break;
      case ']': push(TokenKind::RBracket, line, column); break;
      case '(': push(TokenKind::LParen, line, column); break;
      case ')': push(TokenKind::RParen, line, column); break;
      case ',': push(TokenKind::Comma, line, column); break;
      case ';': push(TokenKind::Semicolon, line, column); break;
      case ':': push(TokenKind::Colon, line, column); break;
      case '+': push(TokenKind::Plus, line, column); break;
      case '-': push(TokenKind::Minus, line, column); break;
      case '*': push(TokenKind::Star, line, column); break;
      case '/': push(TokenKind::Slash, line, column); break;
      case '^': push(TokenKind::Caret, line, column); break;
      case '=':
        if (cur.peek() == '=') {
          cur.advance();
          push(TokenKind::EqEq, line, column);
        } else {
          push(TokenKind::Assign, line, column);
        }
        break;
      case '<':
        if (cur.peek() == '=') {
          cur.advance();
          push(TokenKind::Le, line, column);
        } else {
          throw adpm::ParseError("expected '<=' (strict '<' is not a DDDL "
                                 "relation)",
                                 line, column);
        }
        break;
      case '>':
        if (cur.peek() == '=') {
          cur.advance();
          push(TokenKind::Ge, line, column);
        } else {
          throw adpm::ParseError("expected '>=' (strict '>' is not a DDDL "
                                 "relation)",
                                 line, column);
        }
        break;
      default:
        throw adpm::ParseError(std::string("unexpected character '") + c + "'",
                               line, column);
    }
  }
  Token end;
  end.kind = TokenKind::End;
  end.line = cur.line();
  end.column = cur.column();
  tokens.push_back(end);
  return tokens;
}

}  // namespace adpm::dddl
