#include "src/util/csv.h"

#include <fstream>

#include "src/util/string_util.h"

namespace smgcn {

namespace {
/// RFC-4180 escaping: fields with CSV specials (commas, quotes, CR/LF) are
/// wrapped in double quotes with embedded quotes doubled; clean fields pass
/// through untouched.
std::string EscapeField(const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}
}  // namespace

CsvWriter::CsvWriter(std::vector<std::string> header) : header_(std::move(header)) {}

Status CsvWriter::AddRow(std::vector<std::string> row) {
  if (row.size() != header_.size()) {
    return Status::InvalidArgument(
        StrFormat("row width %zu does not match header width %zu", row.size(),
                  header_.size()));
  }
  rows_.push_back(std::move(row));
  return Status::OK();
}

Status CsvWriter::AddNumericRow(const std::vector<double>& row) {
  std::vector<std::string> fields;
  fields.reserve(row.size());
  for (double v : row) fields.push_back(StrFormat("%.6g", v));
  return AddRow(std::move(fields));
}

std::string CsvWriter::ToString() const {
  std::string out;
  auto append_row = [&out](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += ',';
      out += EscapeField(row[i]);
    }
    out += '\n';
  };
  append_row(header_);
  for (const auto& row : rows_) append_row(row);
  return out;
}

Status CsvWriter::WriteFile(const std::string& path) const {
  std::ofstream file(path, std::ios::out | std::ios::trunc);
  if (!file) return Status::IoError("cannot open for writing: " + path);
  file << ToString();
  if (!file) return Status::IoError("write failed: " + path);
  return Status::OK();
}

}  // namespace smgcn
