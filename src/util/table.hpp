// ASCII table renderer for the benchmark harnesses, so every bench can
// print rows shaped like the paper's tables/figures.
#pragma once

#include <string>
#include <vector>

namespace eslurm {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  /// Renders with column alignment and a separator under the header.
  std::string render() const;

  /// Renders and writes to stdout.
  void print() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace eslurm
