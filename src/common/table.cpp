#include "common/table.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace araxl {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)), right_(header_.size(), false) {
  check(!header_.empty(), "table must have at least one column");
}

void TextTable::add_row(std::vector<std::string> row) {
  check(row.size() == header_.size(), "row arity must match header");
  rows_.push_back(std::move(row));
}

void TextTable::add_rule() { rows_.emplace_back(); }

void TextTable::align_right(std::size_t col) {
  check(col < right_.size(), "column index out of range");
  right_[col] = true;
}

std::string TextTable::render() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }

  const auto emit_rule = [&](std::string& out) {
    for (std::size_t c = 0; c < width.size(); ++c) {
      out += '+';
      out.append(width[c] + 2, '-');
    }
    out += "+\n";
  };
  const auto emit_row = [&](std::string& out, const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < width.size(); ++c) {
      const std::string& cell = row[c];
      const std::size_t pad = width[c] - cell.size();
      out += "| ";
      if (right_[c]) out.append(pad, ' ');
      out += cell;
      if (!right_[c]) out.append(pad, ' ');
      out += ' ';
    }
    out += "|\n";
  };

  std::string out;
  emit_rule(out);
  emit_row(out, header_);
  emit_rule(out);
  for (const auto& row : rows_) {
    if (row.empty()) {
      emit_rule(out);
    } else {
      emit_row(out, row);
    }
  }
  emit_rule(out);
  return out;
}

}  // namespace araxl
