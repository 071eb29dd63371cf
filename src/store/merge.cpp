#include "store/merge.hpp"

#include <algorithm>
#include <cstdint>
#include <map>

#include "common/contracts.hpp"
#include "store/json.hpp"

namespace araxl::store {

namespace {

constexpr std::string_view kJsonHead = "{\"results\":[\n";
constexpr std::string_view kJsonTail = "]}\n";

/// Splits `text` into its '\n'-terminated lines (the final line may be
/// unterminated).
std::vector<std::string_view> lines_of(std::string_view text) {
  std::vector<std::string_view> lines;
  while (!text.empty()) {
    const std::size_t nl = text.find('\n');
    lines.push_back(text.substr(0, nl));
    if (nl == std::string_view::npos) break;
    text.remove_prefix(nl + 1);
  }
  return lines;
}

/// Validates index coverage 0..n-1 and rejects duplicates. Like every
/// per-record check below, the message is built only on failure.
template <typename Map>
void check_contiguous(const Map& by_index) {
  std::uint64_t expect = 0;
  for (const auto& [index, text] : by_index) {
    if (index != expect) {
      fail("merge inputs are missing job index " + std::to_string(expect) +
           " — a shard report is absent or incomplete");
    }
    ++expect;
  }
}

}  // namespace

std::string merge_json_reports(const std::vector<std::string>& docs) {
  check(!docs.empty(), "merge needs at least one report");
  // Record text keyed by job index; std::map gives the sorted order back.
  std::map<std::uint64_t, std::string> by_index;
  for (const std::string& doc : docs) {
    check(doc.size() >= kJsonHead.size() + kJsonTail.size() &&
              doc.compare(0, kJsonHead.size(), kJsonHead) == 0 &&
              doc.compare(doc.size() - kJsonTail.size(), kJsonTail.size(),
                          kJsonTail) == 0,
          "input is not a driver JSON report ({\"results\":[...]})");
    const std::string_view body(doc.data() + kJsonHead.size(),
                                doc.size() - kJsonHead.size() - kJsonTail.size());
    for (std::string_view line : lines_of(body)) {
      if (line.empty()) continue;
      // to_json writes one record per line, comma-separated; strip the
      // separator but keep the record text itself byte-for-byte.
      if (line.back() == ',') line.remove_suffix(1);
      const JsonValue rec = parse_json(line);
      const JsonValue* index = rec.get("index");
      check(index != nullptr, "report record has no job index");
      const auto [it, inserted] =
          by_index.emplace(index->as_u64(), std::string(line));
      if (!inserted && it->second != line) {
        fail("conflicting records for job index " + index->text +
             " (same sweep sharded twice with different results?)");
      }
    }
  }
  check_contiguous(by_index);

  std::string out(kJsonHead);
  std::size_t emitted = 0;
  for (const auto& [index, text] : by_index) {
    out += text;
    if (++emitted != by_index.size()) out += ",";
    out += "\n";
  }
  out += kJsonTail;
  return out;
}

std::string merge_csv_reports(const std::vector<std::string>& docs) {
  check(!docs.empty(), "merge needs at least one report");
  std::string header;
  std::map<std::uint64_t, std::string> by_index;
  for (const std::string& doc : docs) {
    const std::vector<std::string_view> lines = lines_of(doc);
    check(!lines.empty() && !lines[0].empty(),
          "input is not a driver CSV report (missing header)");
    if (header.empty()) {
      header = std::string(lines[0]);
    } else {
      check(header == lines[0], "CSV reports have mismatched headers");
    }
    for (std::size_t i = 1; i < lines.size(); ++i) {
      const std::string_view row = lines[i];
      if (row.empty()) continue;
      const std::size_t comma = row.find(',');
      check(comma != std::string_view::npos, "malformed CSV row");
      std::uint64_t index = 0;
      for (const char c : row.substr(0, comma)) {
        check(c >= '0' && c <= '9', "CSV row does not start with a job index");
        index = index * 10 + static_cast<std::uint64_t>(c - '0');
      }
      const auto [it, inserted] = by_index.emplace(index, std::string(row));
      if (!inserted && it->second != row) {
        fail("conflicting CSV rows for job index " + std::to_string(index));
      }
    }
  }
  check_contiguous(by_index);

  std::string out = header + "\n";
  for (const auto& [index, row] : by_index) {
    out += row;
    out += "\n";
  }
  return out;
}

}  // namespace araxl::store
