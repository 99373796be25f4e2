#pragma once
/// \file table_writer.hpp
/// \brief Fixed-width ASCII / Markdown table rendering for the bench
/// harness output (the Table II reproduction prints through this).

#include <string>
#include <vector>

namespace phonoc {

class TableWriter {
 public:
  explicit TableWriter(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  /// Aligned plain-text rendering (two-space column gap).
  [[nodiscard]] std::string to_ascii() const;

  [[nodiscard]] std::size_t row_count() const noexcept {
    return rows_.size();
  }

 private:
  [[nodiscard]] std::vector<std::size_t> column_widths() const;

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace phonoc
