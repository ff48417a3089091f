// Minimal text table rendering, used by every bench binary to print the
// paper's tables/figure series in a stable, diff-friendly format.

#pragma once

#include <string>
#include <vector>

namespace litegpu {

// A simple column-aligned text table. Cells are strings; callers format
// numbers with the helpers in format.h so units stay explicit.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  // Adds one row. Rows shorter than the header are right-padded with "".
  void AddRow(std::vector<std::string> cells);

  // Appends a horizontal separator after the last added row.
  void AddSeparator();

  // Renders with box-drawing separators suitable for terminals/logs. The
  // first column is left-aligned, the rest right-aligned.
  std::string ToText() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<size_t> separator_after_;  // row indices followed by a rule
};

}  // namespace litegpu
