#include "util/table.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace eslurm {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> cells) {
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::render() const {
  std::vector<std::size_t> widths(header_.size(), 0);
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < header_.size(); ++c) {
      os << (c ? "  " : "");
      const std::string& s = c < cells.size() ? cells[c] : std::string();
      os << s << std::string(widths[c] - s.size(), ' ');
    }
    os << '\n';
  };
  emit(header_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) total += widths[c] + (c ? 2 : 0);
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
  return os.str();
}

void Table::print() const { std::fputs(render().c_str(), stdout); }

}  // namespace eslurm
