// Console table + CSV emission: gcnrl_cli's summary table and its trace
// and per-seed CSV files.
#pragma once

#include <string>
#include <vector>

namespace gcnrl {

// A simple fixed-column text table. Column widths auto-size to content.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);
  // Convenience: format doubles with the given precision.
  static std::string num(double v, int precision = 3);

  // Render with aligned columns and a header separator.
  [[nodiscard]] std::string str() const;
  void print() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Minimal CSV writer. A cell that holds a comma, a double quote, CR or LF
// is quoted as RFC 4180 says (embedded quotes doubled); every other cell
// is written as is.
class CsvWriter {
 public:
  explicit CsvWriter(std::string path);
  ~CsvWriter();
  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  void row(const std::vector<std::string>& cells);
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  void* file_;  // FILE*, kept opaque to avoid <cstdio> in the header
};

}  // namespace gcnrl
