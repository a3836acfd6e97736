#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "util/error.hpp"

namespace adpm::util::json {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse("null").isNull());
  EXPECT_EQ(parse("true").asBool(), true);
  EXPECT_EQ(parse("false").asBool(), false);
  EXPECT_DOUBLE_EQ(parse("42").asNumber(), 42.0);
  EXPECT_DOUBLE_EQ(parse("-0.5e2").asNumber(), -50.0);
  EXPECT_EQ(parse("\"hi\"").asString(), "hi");
}

TEST(Json, ParsesEscapes) {
  EXPECT_EQ(parse(R"("a\"b\\c\nd\te")").asString(), "a\"b\\c\nd\te");
  EXPECT_EQ(parse(R"("A")").asString(), "A");
}

TEST(Json, ParsesNestedStructures) {
  const Value v = parse(R"({"a":[1,2,{"b":true}],"c":"x"})");
  const Array& a = v.at("a").asArray();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a[0].asNumber(), 1.0);
  EXPECT_TRUE(a[2].at("b").asBool());
  EXPECT_EQ(v.at("c").asString(), "x");
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), adpm::InvalidArgumentError);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(parse(""), adpm::ParseError);
  EXPECT_THROW(parse("{"), adpm::ParseError);
  EXPECT_THROW(parse("[1,]"), adpm::ParseError);
  EXPECT_THROW(parse("{\"a\":1,}"), adpm::ParseError);
  EXPECT_THROW(parse("nul"), adpm::ParseError);
  EXPECT_THROW(parse("\"unterminated"), adpm::ParseError);
  EXPECT_THROW(parse("1 2"), adpm::ParseError);  // trailing garbage
  EXPECT_THROW(parse("{\"a\" 1}"), adpm::ParseError);
}

TEST(Json, KindMismatchThrows) {
  EXPECT_THROW(parse("1").asString(), adpm::InvalidArgumentError);
  EXPECT_THROW(parse("\"s\"").asNumber(), adpm::InvalidArgumentError);
  EXPECT_THROW(parse("[]").asObject(), adpm::InvalidArgumentError);
}

TEST(Json, SerializeIsCanonical) {
  Value obj;
  obj.set("b", Value(1));
  obj.set("a", Value("x"));
  obj.set("list", Value(Array{Value(true), Value(nullptr)}));
  // Insertion order, no whitespace.
  EXPECT_EQ(serialize(obj), R"({"b":1,"a":"x","list":[true,null]})");
}

TEST(Json, CanonicalRoundTrip) {
  const std::string canonical =
      R"({"t":"op","op":{"kind":"Synthesis","assign":[[1,30.5]]}})";
  EXPECT_EQ(serialize(parse(canonical)), canonical);
}

TEST(Json, DoublesRoundTripBitIdentically) {
  const double values[] = {0.1,
                           1.0 / 3.0,
                           std::nextafter(2.0, 3.0),
                           1e-300,
                           -9.87654321012345678e18,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max()};
  for (const double v : values) {
    std::string text;
    formatNumber(text, v);
    const double back = parse(text).asNumber();
    EXPECT_EQ(back, v) << text;  // exact, not approximate
  }
}

TEST(Json, EscapeHandlesControlCharacters) {
  EXPECT_EQ(escape("a\"b"), "a\\\"b");
  EXPECT_EQ(escape("line\n"), "line\\n");
  EXPECT_EQ(escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, EqualityIsStructural) {
  EXPECT_EQ(parse(R"({"a":[1,2]})"), parse(R"({"a":[1,2]})"));
  EXPECT_FALSE(parse(R"({"a":1})") == parse(R"({"a":2})"));
  EXPECT_FALSE(parse("1") == parse("\"1\""));
}

}  // namespace
}  // namespace adpm::util::json
