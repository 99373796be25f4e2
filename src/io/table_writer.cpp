#include "io/table_writer.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"

namespace phonoc {

TableWriter::TableWriter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  require(!headers_.empty(), "TableWriter: at least one column");
}

void TableWriter::add_row(std::vector<std::string> cells) {
  require(cells.size() == headers_.size(),
          "TableWriter: row width mismatch");
  rows_.push_back(std::move(cells));
}

std::vector<std::size_t> TableWriter::column_widths() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());
  return widths;
}

std::string TableWriter::to_ascii() const {
  const auto widths = column_widths();
  std::ostringstream out;
  const auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      out << cells[c] << std::string(widths[c] - cells[c].size(), ' ');
      if (c + 1 < cells.size()) out << "  ";
    }
    out << '\n';
  };
  emit(headers_);
  std::size_t total = 0;
  for (const auto w : widths) total += w + 2;
  out << std::string(total > 2 ? total - 2 : total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
  return out.str();
}

}  // namespace phonoc
