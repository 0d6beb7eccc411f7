#include "util/table.h"

#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace nfvm::util {

std::string format_double(double value, int precision) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(precision) << value;
  return oss.str();
}

Table::Table(std::vector<std::string> columns) : columns_(std::move(columns)) {
  if (columns_.empty()) throw std::invalid_argument("Table: needs at least one column");
}

Table& Table::begin_row() {
  rows_.emplace_back();
  rows_.back().reserve(columns_.size());
  return *this;
}

Table& Table::add(const std::string& value) {
  if (rows_.empty()) throw std::logic_error("Table::add before begin_row");
  rows_.back().push_back(value);
  return *this;
}

Table& Table::add(const char* value) { return add(std::string(value)); }

Table& Table::add(double value, int precision) {
  return add(format_double(value, precision));
}

Table& Table::add(std::size_t value) { return add(std::to_string(value)); }

const std::string& Table::cell(std::size_t row, std::size_t col) const {
  return rows_.at(row).at(col);
}

void Table::print(std::ostream& os) const {
  for (const auto& row : rows_) {
    if (row.size() != columns_.size()) {
      throw std::logic_error("Table::print: row width does not match header");
    }
  }
  std::vector<std::size_t> widths(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) widths[c] = columns_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  os << "#";
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    os << ' ' << std::setw(static_cast<int>(widths[c])) << std::left << columns_[c];
  }
  os << '\n';
  for (const auto& row : rows_) {
    os << ' ';
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << ' ' << std::setw(static_cast<int>(widths[c])) << std::left << row[c];
    }
    os << '\n';
  }
}

}  // namespace nfvm::util
