#ifndef STREAMHIST_BENCH_COMMON_H_
#define STREAMHIST_BENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

namespace streamhist::bench {

/// Simple aligned-column table printer for paper-style result tables.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  /// Adds one row; cells are preformatted strings.
  void AddRow(std::vector<std::string> cells);

  /// Prints the table (headers, separator, rows) to stdout.
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `digits` significant digits.
std::string Fmt(double v, int digits = 4);

/// Formats an integer with thousands separators.
std::string FmtInt(int64_t v);

/// Prints a section banner for one experiment.
void Banner(const std::string& title);

/// Parses "--key=value" style flags; returns value or fallback.
int64_t FlagInt(int argc, char** argv, const std::string& key,
                int64_t fallback);
double FlagDouble(int argc, char** argv, const std::string& key,
                  double fallback);

}  // namespace streamhist::bench

#endif  // STREAMHIST_BENCH_COMMON_H_
