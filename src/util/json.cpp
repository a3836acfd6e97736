#include "util/json.hpp"

#include <cmath>
#include <cstdio>
#include <optional>

#include "util/error.hpp"
#include "util/number.hpp"

namespace adpm::util::json {

namespace {

[[noreturn]] void kindError(const char* wanted, Kind got) {
  throw adpm::InvalidArgumentError(std::string("json: expected ") + wanted +
                                   ", got kind " +
                                   std::to_string(static_cast<int>(got)));
}

}  // namespace

bool Value::asBool() const {
  if (kind_ != Kind::Bool) kindError("bool", kind_);
  return bool_;
}

double Value::asNumber() const {
  if (kind_ != Kind::Number) kindError("number", kind_);
  return number_;
}

const std::string& Value::asString() const& {
  if (kind_ != Kind::String) kindError("string", kind_);
  return string_;
}

std::string Value::asString() && {
  if (kind_ != Kind::String) kindError("string", kind_);
  return std::move(string_);
}

const Array& Value::asArray() const {
  if (kind_ != Kind::Array) kindError("array", kind_);
  return array_;
}

const Object& Value::asObject() const {
  if (kind_ != Kind::Object) kindError("object", kind_);
  return object_;
}

const Value* Value::find(std::string_view key) const noexcept {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr) {
    throw adpm::InvalidArgumentError("json: missing field '" +
                                     std::string(key) + "'");
  }
  return *v;
}

Value Value::take(std::string_view key) {
  if (kind_ == Kind::Object) {
    for (auto& [k, v] : object_) {
      if (k == key) return std::exchange(v, Value());
    }
  }
  throw adpm::InvalidArgumentError("json: missing field '" + std::string(key) +
                                   "'");
}

Value& Value::set(std::string key, Value v) {
  if (kind_ == Kind::Null) kind_ = Kind::Object;
  if (kind_ != Kind::Object) kindError("object", kind_);
  object_.emplace_back(std::move(key), std::move(v));
  return *this;
}

bool Value::operator==(const Value& other) const noexcept {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::Null: return true;
    case Kind::Bool: return bool_ == other.bool_;
    case Kind::Number: return number_ == other.number_;
    case Kind::String: return string_ == other.string_;
    case Kind::Array: return array_ == other.array_;
    case Kind::Object: return object_ == other.object_;
  }
  return false;
}

// -- parser -------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value document() {
    Value v = value();
    skipWs();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw adpm::ParseError("json: " + what, 1, static_cast<int>(pos_) + 1);
  }

  void skipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }

  bool consumeWord(std::string_view w) {
    if (text_.substr(pos_, w.size()) == w) {
      pos_ += w.size();
      return true;
    }
    return false;
  }

  Value value() {
    skipWs();
    const char c = peek();
    switch (c) {
      case '{': return object();
      case '[': return array();
      case '"': return Value(string());
      case 't':
        if (consumeWord("true")) return Value(true);
        fail("bad literal");
      case 'f':
        if (consumeWord("false")) return Value(false);
        fail("bad literal");
      case 'n':
        if (consumeWord("null")) return Value(nullptr);
        fail("bad literal");
      default: return number();
    }
  }

  Value object() {
    expect('{');
    Object fields;
    skipWs();
    if (consume('}')) return Value(std::move(fields));
    for (;;) {
      skipWs();
      std::string key = string();
      skipWs();
      expect(':');
      fields.emplace_back(std::move(key), value());
      skipWs();
      if (consume(',')) continue;
      expect('}');
      return Value(std::move(fields));
    }
  }

  Value array() {
    expect('[');
    Array items;
    skipWs();
    if (consume(']')) return Value(std::move(items));
    for (;;) {
      items.push_back(value());
      skipWs();
      if (consume(',')) continue;
      expect(']');
      return Value(std::move(items));
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      // Copy the run up to the next quote or escape in one append.
      const std::size_t stop = text_.find_first_of("\"\\", pos_);
      if (stop == std::string_view::npos) fail("unterminated string");
      out.append(text_.data() + pos_, stop - pos_);
      pos_ = stop + 1;
      if (text_[stop] == '"') return out;
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // The writer only emits \u00XX for control bytes; reject the rest
          // rather than silently mangling multi-byte text.
          if (code > 0xFF) fail("unsupported \\u escape above U+00FF");
          out.push_back(static_cast<char>(code));
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  Value number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c < '0' || c > '9') && c != '.' && c != 'e' && c != 'E' &&
          c != '+' && c != '-') {
        break;
      }
      ++pos_;
    }
    if (pos_ == start) fail("expected value");
    const std::string_view token = text_.substr(start, pos_ - start);
    const std::optional<double> v = util::parseDouble(token);
    if (!v || !std::isfinite(*v)) {
      fail("bad number '" + std::string(token) + "'");
    }
    return Value(*v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void escapeTo(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
}

void serializeTo(const Value& v, std::string& out) {
  switch (v.kind()) {
    case Kind::Null: out += "null"; break;
    case Kind::Bool: out += v.asBool() ? "true" : "false"; break;
    case Kind::Number: formatNumber(out, v.asNumber()); break;
    case Kind::String:
      out.push_back('"');
      escapeTo(out, v.asString());
      out.push_back('"');
      break;
    case Kind::Array: {
      out.push_back('[');
      bool first = true;
      for (const Value& item : v.asArray()) {
        if (!first) out.push_back(',');
        first = false;
        serializeTo(item, out);
      }
      out.push_back(']');
      break;
    }
    case Kind::Object: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, field] : v.asObject()) {
        if (!first) out.push_back(',');
        first = false;
        out.push_back('"');
        escapeTo(out, key);
        out += "\":";
        serializeTo(field, out);
      }
      out.push_back('}');
      break;
    }
  }
}

}  // namespace

Value parse(std::string_view text) { return Parser(text).document(); }

std::string serialize(const Value& v) {
  std::string out;
  serializeTo(v, out);
  return out;
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  escapeTo(out, s);
  return out;
}

void formatNumber(std::string& out, double v) {
  if (!std::isfinite(v)) {
    throw adpm::InvalidArgumentError("json: non-finite number");
  }
  util::appendDouble(out, v);
}

}  // namespace adpm::util::json
