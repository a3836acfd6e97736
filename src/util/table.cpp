#include "util/table.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <ostream>
#include <sstream>

#include "util/number.hpp"

namespace adpm::util {

namespace {

bool looksNumeric(const std::string& s) {
  if (s.empty()) return false;
  std::size_t i = (s[0] == '-' || s[0] == '+') ? 1 : 0;
  if (i >= s.size()) return false;
  bool digit = false;
  for (; i < s.size(); ++i) {
    const char c = s[i];
    if (std::isdigit(static_cast<unsigned char>(c))) {
      digit = true;
    } else if (c != '.' && c != 'e' && c != 'E' && c != '-' && c != '+' &&
               c != '%' && c != 'x') {
      return false;
    }
  }
  return digit;
}

}  // namespace

void TextTable::header(std::vector<std::string> cells) {
  header_ = std::move(cells);
}

void TextTable::row(std::vector<std::string> cells) {
  rows_.push_back({std::move(cells), false});
}

void TextTable::rule() { rows_.push_back({{}, true}); }

std::string TextTable::render() const {
  std::vector<std::size_t> widths;
  auto widen = [&](const std::vector<std::string>& cells) {
    if (cells.size() > widths.size()) widths.resize(cells.size(), 0);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      widths[i] = std::max(widths[i], cells[i].size());
    }
  };
  widen(header_);
  for (const auto& r : rows_) {
    if (!r.isRule) widen(r.cells);
  }

  std::size_t totalWidth = 0;
  for (std::size_t w : widths) totalWidth += w + 2;
  if (totalWidth >= 2) totalWidth -= 2;

  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& cells, bool alignNumbers) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto& cell = cells[i];
      const std::size_t pad = widths[i] - cell.size();
      const bool right = alignNumbers && looksNumeric(cell);
      if (right) out << std::string(pad, ' ');
      out << cell;
      if (i + 1 < cells.size()) {
        if (!right) out << std::string(pad, ' ');
        out << "  ";
      }
    }
    out << "\n";
  };

  if (!header_.empty()) {
    emit(header_, false);
    out << std::string(totalWidth, '-') << "\n";
  }
  for (const auto& r : rows_) {
    if (r.isRule) {
      out << std::string(totalWidth, '-') << "\n";
    } else {
      emit(r.cells, true);
    }
  }
  return out.str();
}

std::string formatNumber(double value, int digits) {
  if (std::isnan(value)) return "nan";
  return formatDouble(value, digits);
}

std::string formatExact(double value) {
  if (std::isnan(value)) return "nan";
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
  char buffer[64];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc{}) return formatNumber(value, 17);
  return std::string(buffer, ptr);
}

namespace {

std::string csvEscape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string quoted = "\"";
  for (char c : cell) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

void csvRow(std::ostream& out, const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) out << ',';
    out << csvEscape(cells[i]);
  }
  out << '\n';
}

}  // namespace

void writeCsv(std::ostream& out, const std::vector<std::string>& header,
              const std::vector<std::vector<std::string>>& rows) {
  if (!header.empty()) csvRow(out, header);
  for (const auto& r : rows) csvRow(out, r);
}

}  // namespace adpm::util
