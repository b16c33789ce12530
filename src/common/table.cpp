#include "common/table.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace gcnrl {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
  return buf;
}

std::string TextTable::str() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < header_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string{};
      out << cell << std::string(width[c] - cell.size() + 2, ' ');
    }
    out << '\n';
  };
  emit(header_);
  std::size_t total = 0;
  for (auto w : width) total += w + 2;
  out << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
  return out.str();
}

void TextTable::print() const { std::fputs(str().c_str(), stdout); }

CsvWriter::CsvWriter(std::string path) : path_(std::move(path)) {
  file_ = std::fopen(path_.c_str(), "w");
  if (file_ == nullptr) {
    throw std::runtime_error("CsvWriter: cannot open " + path_);
  }
}

CsvWriter::~CsvWriter() {
  if (file_ != nullptr) std::fclose(static_cast<std::FILE*>(file_));
}

void CsvWriter::row(const std::vector<std::string>& cells) {
  auto* f = static_cast<std::FILE*>(file_);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::string& cell = cells[i];
    if (cell.find_first_of(",\"\r\n") == std::string::npos) {
      std::fputs(cell.c_str(), f);
    } else {
      // RFC 4180: quote the field and double every embedded quote.
      std::fputc('"', f);
      for (const char c : cell) {
        if (c == '"') std::fputc('"', f);
        std::fputc(c, f);
      }
      std::fputc('"', f);
    }
    std::fputc(i + 1 == cells.size() ? '\n' : ',', f);
  }
}

}  // namespace gcnrl
