// Plain-text rendering used by the benchmark harnesses: aligned tables for
// the paper's per-experiment annotation lines, and ASCII density plots for
// the stationary phase-error PDFs of Figures 4 and 5.  Plus the strict
// number parsers shared by the config-file format and the command lines.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace stocdr {

/// Column-aligned text table.  Rows are added as vectors of cells; render()
/// pads every column to its widest cell.
class TextTable {
 public:
  /// Creates a table with the given header row.
  explicit TextTable(std::vector<std::string> header);

  /// Appends a data row; it may have at most as many cells as the header.
  void add_row(std::vector<std::string> row);

  /// Renders the table with a separator line under the header.
  [[nodiscard]] std::string render() const;

 private:
  std::vector<std::vector<std::string>> rows_;
};

/// Renders a discrete density (values at grid points) as an ASCII area plot,
/// `height` rows tall, one column per (possibly downsampled) grid point.
/// Used to reproduce the probability-density figures in text form.
[[nodiscard]] std::string ascii_density_plot(std::span<const double> x,
                                             std::span<const double> density,
                                             std::size_t width = 72,
                                             std::size_t height = 14);

/// Formats a double in the compact scientific style the paper's annotations
/// use, e.g. "1.6e-09".
[[nodiscard]] std::string sci(double value, int digits = 2);

/// Formats a double with fixed precision.
[[nodiscard]] std::string fixed(double value, int digits = 3);

/// Parses `text` as exactly one unsigned decimal integer that fits a
/// size_t: no sign, no exponent, nothing before or after the digits.
/// Throws PreconditionError "bad integer for <what>: <text>" otherwise.
[[nodiscard]] std::size_t parse_size(const std::string& text,
                                     const std::string& what);

/// Parses `text` as exactly one finite number (no leading '+' or
/// whitespace, nothing after it).  Throws PreconditionError "bad number
/// for <what>: <text>" otherwise, including for inf, nan and out-of-range
/// values.
[[nodiscard]] double parse_double(const std::string& text,
                                  const std::string& what);

}  // namespace stocdr
