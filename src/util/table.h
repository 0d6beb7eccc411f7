// Aligned plain-text table printer. Every benchmark binary prints its
// results through this so that the output of the harness is uniform and
// trivially machine-parsable (`#`-prefixed metadata, whitespace-separated
// columns).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace nfvm::util {

class Table {
 public:
  /// `columns` become the header row.
  explicit Table(std::vector<std::string> columns);

  /// Starts a new row; values are appended with the add_* calls below.
  Table& begin_row();
  Table& add(const std::string& value);
  Table& add(const char* value);
  Table& add(double value, int precision = 3);
  Table& add(std::size_t value);

  std::size_t num_rows() const noexcept { return rows_.size(); }
  std::size_t num_columns() const noexcept { return columns_.size(); }
  /// Cell accessor (row-major). Throws std::out_of_range on bad indices.
  const std::string& cell(std::size_t row, std::size_t col) const;
  /// Header name of column `col`. Throws std::out_of_range on bad indices.
  const std::string& column(std::size_t col) const { return columns_.at(col); }

  /// Renders the aligned table. Throws std::logic_error if any row has a
  /// different number of cells than the header.
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (helper shared with benches).
std::string format_double(double value, int precision = 3);

}  // namespace nfvm::util
