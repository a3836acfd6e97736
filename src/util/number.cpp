#include "util/number.hpp"

#include <system_error>
#include <vector>

namespace adpm::util {

void appendDouble(std::string& out, double v, int digits) {
  // %g output is at most `digits` significant digits plus sign, point and a
  // five-character exponent, so the stack buffer covers every precision the
  // project uses; larger precisions take the sized heap path.
  char buf[64];
  std::to_chars_result r = std::to_chars(
      buf, buf + sizeof buf, v, std::chars_format::general, digits);
  if (r.ec == std::errc{}) {
    out.append(buf, r.ptr);
    return;
  }
  std::vector<char> big(static_cast<std::size_t>(digits) + 32);
  r = std::to_chars(big.data(), big.data() + big.size(), v,
                    std::chars_format::general, digits);
  out.append(big.data(), r.ptr);
}

std::string formatDouble(double v, int digits) {
  std::string out;
  appendDouble(out, v, digits);
  return out;
}

std::optional<double> parseDouble(std::string_view text) noexcept {
  double v = 0.0;
  const char* end = text.data() + text.size();
  const std::from_chars_result r = std::from_chars(text.data(), end, v);
  if (r.ec != std::errc{} || r.ptr != end) return std::nullopt;
  return v;
}

}  // namespace adpm::util
