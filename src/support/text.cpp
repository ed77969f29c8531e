#include "support/text.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <system_error>

#include "support/error.hpp"

namespace stocdr {

TextTable::TextTable(std::vector<std::string> header) {
  STOCDR_REQUIRE(!header.empty(), "TextTable header must be non-empty");
  rows_.push_back(std::move(header));
}

void TextTable::add_row(std::vector<std::string> row) {
  STOCDR_REQUIRE(row.size() <= rows_.front().size(),
                 "TextTable row has more cells than the header");
  row.resize(rows_.front().size());
  rows_.push_back(std::move(row));
}

std::string TextTable::render() const {
  const std::size_t ncols = rows_.front().size();
  std::vector<std::size_t> widths(ncols, 0);
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream os;
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    for (std::size_t c = 0; c < ncols; ++c) {
      os << rows_[r][c];
      if (c + 1 < ncols) {
        os << std::string(widths[c] - rows_[r][c].size() + 2, ' ');
      }
    }
    os << '\n';
    if (r == 0) {
      std::size_t total = 0;
      for (std::size_t c = 0; c < ncols; ++c) {
        total += widths[c] + (c + 1 < ncols ? 2 : 0);
      }
      os << std::string(total, '-') << '\n';
    }
  }
  return os.str();
}

std::string ascii_density_plot(std::span<const double> x,
                               std::span<const double> density,
                               std::size_t width, std::size_t height) {
  STOCDR_REQUIRE(x.size() == density.size() && !x.empty(),
                 "ascii_density_plot requires matching non-empty spans");
  STOCDR_REQUIRE(width >= 8 && height >= 4,
                 "ascii_density_plot plot area too small");

  // Downsample (max-pool) the density onto `width` columns so narrow peaks
  // survive the reduction.
  std::vector<double> cols(width, 0.0);
  for (std::size_t i = 0; i < density.size(); ++i) {
    const std::size_t c =
        std::min(width - 1, i * width / density.size());
    cols[c] = std::max(cols[c], density[i]);
  }
  const double peak = *std::max_element(cols.begin(), cols.end());
  std::ostringstream os;
  if (peak <= 0.0) {
    os << "(density identically zero)\n";
    return os.str();
  }
  for (std::size_t r = 0; r < height; ++r) {
    const double level =
        peak * static_cast<double>(height - r) / static_cast<double>(height);
    os << (r == 0 ? "peak" : "    ") << " |";
    for (std::size_t c = 0; c < width; ++c) {
      os << (cols[c] >= level ? '#' : ' ');
    }
    os << '\n';
  }
  os << "     +" << std::string(width, '-') << '\n';
  char lo[32], hi[32];
  std::snprintf(lo, sizeof lo, "%.3g", x.front());
  std::snprintf(hi, sizeof hi, "%.3g", x.back());
  os << "      " << lo << std::string(width > std::string(lo).size() +
                                              std::string(hi).size()
                                          ? width - std::string(lo).size() -
                                                std::string(hi).size()
                                          : 1,
                                      ' ')
     << hi << '\n';
  return os.str();
}

std::string sci(double value, int digits) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*e", digits, value);
  return buf;
}

std::string fixed(double value, int digits) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*f", digits, value);
  return buf;
}

std::size_t parse_size(const std::string& text, const std::string& what) {
  std::size_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end) {
    throw PreconditionError("bad integer for " + what + ": " + text);
  }
  return value;
}

double parse_double(const std::string& text, const std::string& what) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end || !std::isfinite(value)) {
    throw PreconditionError("bad number for " + what + ": " + text);
  }
  return value;
}

}  // namespace stocdr
