#include "src/util/table.h"

#include <algorithm>
#include <sstream>

namespace litegpu {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::AddRow(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

void Table::AddSeparator() {
  if (!rows_.empty()) {
    separator_after_.push_back(rows_.size() - 1);
  }
}

std::string Table::ToText() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto pad = [&](const std::string& cell, size_t c) {
    std::string out;
    size_t fill = widths[c] - cell.size();
    if (c > 0) {
      out.append(fill, ' ');
      out += cell;
    } else {
      out += cell;
      out.append(fill, ' ');
    }
    return out;
  };

  auto rule = [&]() {
    std::string line = "+";
    for (size_t c = 0; c < widths.size(); ++c) {
      line.append(widths[c] + 2, '-');
      line += "+";
    }
    line += "\n";
    return line;
  };

  std::ostringstream os;
  os << rule();
  os << "|";
  for (size_t c = 0; c < headers_.size(); ++c) {
    os << " " << pad(headers_[c], c) << " |";
  }
  os << "\n" << rule();
  for (size_t r = 0; r < rows_.size(); ++r) {
    os << "|";
    for (size_t c = 0; c < headers_.size(); ++c) {
      os << " " << pad(rows_[r][c], c) << " |";
    }
    os << "\n";
    if (std::find(separator_after_.begin(), separator_after_.end(), r) !=
        separator_after_.end()) {
      os << rule();
    }
  }
  os << rule();
  return os.str();
}

}  // namespace litegpu
