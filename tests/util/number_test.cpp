// The shared double codec must render exactly what printf's %.*g renders and
// read back exactly what strtod reads: WAL marks, checkpoints and golden
// snapshot digests were all written through printf before the codec existed.
#include "util/number.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace adpm::util {
namespace {

std::string printfG(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", digits, v);
  return buf;
}

/// Bits of a parsed value; every NaN maps to one pattern per sign, since
/// neither %g nor to_chars prints a payload.
std::uint64_t canonicalBits(double v) {
  if (std::isnan(v)) {
    return std::signbit(v) ? 1 : 2;
  }
  return std::bit_cast<std::uint64_t>(v);
}

std::vector<double> edgeValues() {
  using L = std::numeric_limits<double>;
  return {0.0,
          -0.0,
          1.0,
          -1.0,
          0.1,
          1.0 / 3.0,
          123456789.0,
          1e21,
          1e-5,
          1e-4,
          L::denorm_min(),
          -L::denorm_min(),
          L::min() / 3.0,
          L::min(),
          std::nextafter(L::min(), 0.0),
          L::max(),
          -L::max(),
          L::lowest(),
          L::epsilon(),
          9007199254740993.0,  // 2^53 + 1 (rounds to 2^53)
          std::ldexp(1.0, 53) + 2.0,
          L::infinity(),
          -L::infinity(),
          L::quiet_NaN()};
}

void expectMatches(double v) {
  for (const int digits : {6, 17}) {
    ASSERT_EQ(formatDouble(v, digits), printfG(v, digits))
        << "digits " << digits << " bits " << std::bit_cast<std::uint64_t>(v);
  }
  const std::string text = formatDouble(v);
  const std::optional<double> parsed = parseDouble(text);
  ASSERT_TRUE(parsed.has_value()) << text;
  ASSERT_EQ(canonicalBits(*parsed), canonicalBits(std::strtod(text.c_str(), nullptr)))
      << text;
  if (!std::isnan(v)) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(*parsed),
              std::bit_cast<std::uint64_t>(v))
        << text;
  }
}

TEST(NumberCodec, MatchesPrintf) {
  for (const double v : edgeValues()) expectMatches(v);

  // Random bit patterns cover every exponent, subnormals and NaN payloads.
  std::mt19937_64 rng(20011);
  for (int i = 0; i < 100000; ++i) {
    expectMatches(std::bit_cast<double>(rng()));
  }
}

TEST(NumberCodec, AppendsInPlace) {
  std::string out = "x=";
  appendDouble(out, 0.5);
  appendInteger(out, -42);
  appendInteger(out, std::size_t{7});
  EXPECT_EQ(out, "x=0.5-427");
  EXPECT_EQ(formatDouble(1.0 / 3.0, 40), printfG(1.0 / 3.0, 40));
}

TEST(NumberCodec, ParsesOnlyWholeDecimalText) {
  EXPECT_EQ(parseDouble("2.5"), 2.5);
  EXPECT_EQ(parseDouble("-inf"), -std::numeric_limits<double>::infinity());
  // strtod accepts all of these; the codec never writes them.
  EXPECT_FALSE(parseDouble("+1").has_value());
  EXPECT_FALSE(parseDouble(" 1").has_value());
  EXPECT_FALSE(parseDouble("0x1p3").has_value());
  EXPECT_FALSE(parseDouble("1e999").has_value());
  EXPECT_FALSE(parseDouble("1.5x").has_value());
  EXPECT_FALSE(parseDouble("").has_value());
}

}  // namespace
}  // namespace adpm::util
