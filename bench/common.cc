#include "bench/common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <utility>

namespace streamhist::bench {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    std::printf("  ");
    for (size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      std::printf("%-*s  ", static_cast<int>(widths[c]), cell.c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  std::vector<std::string> sep;
  sep.reserve(widths.size());
  for (size_t c = 0; c < widths.size(); ++c) {
    sep.push_back(std::string(widths[c], '-'));
  }
  print_row(sep);
  for (const auto& row : rows_) print_row(row);
}

std::string Fmt(double v, int digits) {
  std::ostringstream os;
  os.precision(digits);
  os << v;
  return os.str();
}

std::string FmtInt(int64_t v) {
  std::string digits = std::to_string(v < 0 ? -v : v);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count > 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  if (v < 0) out.push_back('-');
  return std::string(out.rbegin(), out.rend());
}

void Banner(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

namespace {

const char* FindFlag(int argc, char** argv, const std::string& key) {
  const std::string prefix = "--" + key + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return nullptr;
}

}  // namespace

int64_t FlagInt(int argc, char** argv, const std::string& key,
                int64_t fallback) {
  const char* v = FindFlag(argc, argv, key);
  return v != nullptr ? std::atoll(v) : fallback;
}

double FlagDouble(int argc, char** argv, const std::string& key,
                  double fallback) {
  const char* v = FindFlag(argc, argv, key);
  return v != nullptr ? std::atof(v) : fallback;
}

}  // namespace streamhist::bench
