// Tiny CSV writer used by the experiment harness to dump series that back
// the paper's figures (threshold sweeps, regularisation sweeps, ...).
#ifndef SMGCN_UTIL_CSV_H_
#define SMGCN_UTIL_CSV_H_

#include <string>
#include <vector>

#include "src/util/status.h"

namespace smgcn {

/// Accumulates rows in memory and writes an RFC-4180-ish CSV file. Fields
/// containing commas, quotes or newlines are quoted, with quotes doubled.
class CsvWriter {
 public:
  explicit CsvWriter(std::vector<std::string> header);

  /// Appends a row; its width must match the header.
  Status AddRow(std::vector<std::string> row);

  /// Convenience: formats doubles with 6 significant digits.
  Status AddNumericRow(const std::vector<double>& row);

  /// Writes header + rows to `path`, overwriting.
  Status WriteFile(const std::string& path) const;

  /// Renders the CSV into a string (same content as WriteFile).
  std::string ToString() const;

  std::size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace smgcn

#endif  // SMGCN_UTIL_CSV_H_
