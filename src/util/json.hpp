// Minimal JSON value model, parser, and canonical serializer.
//
// The service layer's durable operation log is JSONL (one object per line),
// and its records must round-trip *bit-identically* so that replaying a log
// reproduces the live run exactly.  Hence the serializer is canonical: no
// insignificant whitespace, object keys kept in insertion order, and numbers
// written and read by the shared double codec (util/number.hpp: 17
// significant digits, which round-trip any IEEE-754 double).
// Only the JSON subset those records need is supported: null, bool, finite
// numbers, strings, arrays, objects.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace adpm::util::json {

class Value;

using Array = std::vector<Value>;
/// Insertion-ordered (not sorted): serialize(parse(s)) == s for canonical s.
using Object = std::vector<std::pair<std::string, Value>>;

enum class Kind : std::uint8_t { Null, Bool, Number, String, Array, Object };

class Value {
 public:
  Value() noexcept : kind_(Kind::Null) {}
  Value(std::nullptr_t) noexcept : kind_(Kind::Null) {}
  Value(bool b) noexcept : kind_(Kind::Bool), bool_(b) {}
  Value(double n) noexcept : kind_(Kind::Number), number_(n) {}
  Value(int n) noexcept : kind_(Kind::Number), number_(n) {}
  Value(std::size_t n) noexcept
      : kind_(Kind::Number), number_(static_cast<double>(n)) {}
  Value(const char* s) : kind_(Kind::String), string_(s) {}
  Value(std::string s) : kind_(Kind::String), string_(std::move(s)) {}
  Value(Array a) : kind_(Kind::Array), array_(std::move(a)) {}
  Value(Object o) : kind_(Kind::Object), object_(std::move(o)) {}

  Kind kind() const noexcept { return kind_; }
  bool isNull() const noexcept { return kind_ == Kind::Null; }

  /// Typed accessors; throw InvalidArgumentError on kind mismatch.  On an
  /// rvalue, asString() moves the string out.
  bool asBool() const;
  double asNumber() const;
  const std::string& asString() const&;
  std::string asString() &&;
  const Array& asArray() const;
  const Object& asObject() const;

  /// Object field lookup; null when absent (or when not an object).
  const Value* find(std::string_view key) const noexcept;
  /// Object field lookup; throws InvalidArgumentError when absent.
  const Value& at(std::string_view key) const;
  /// Moves a field's value out of an object (leaving null behind); throws
  /// InvalidArgumentError when absent.
  Value take(std::string_view key);

  /// Appends a field to an object value (the builder-side API).
  Value& set(std::string key, Value v);

  bool operator==(const Value& other) const noexcept;

 private:
  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Parses one JSON document; trailing garbage is an error.  Throws
/// adpm::ParseError with a 1-based offset in the column field.
Value parse(std::string_view text);

/// Canonical single-line form (see header comment).
std::string serialize(const Value& v);

/// Escapes a string for embedding in JSON (quotes not included).
std::string escape(std::string_view s);

/// Appends the canonical rendering of a finite number (util::appendDouble
/// at 17 digits, which round-trips IEEE-754 doubles); throws
/// InvalidArgumentError for ±inf and NaN.
void formatNumber(std::string& out, double v);

}  // namespace adpm::util::json
