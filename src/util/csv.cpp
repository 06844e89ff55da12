#include "util/csv.h"

#include <charconv>
#include <istream>

#include "util/error.h"

namespace cl {

CsvWriter::CsvWriter(std::ostream& out, const std::vector<std::string>& header)
    : out_(out), cols_(header.size()) {
  CL_EXPECTS(!header.empty());
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (i) out_ << ',';
    out_ << header[i];
  }
  out_ << '\n';
}

void CsvWriter::begin_row() { col_in_row_ = 0; }

void CsvWriter::end_row() {
  CL_ENSURES(col_in_row_ == cols_);
  out_ << '\n';
  ++rows_;
}

void CsvWriter::field(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  field_raw(std::string(buf, res.ptr));
}

void CsvWriter::field(const std::string& v) { field_raw(v); }

void CsvWriter::field(const char* v) { field_raw(std::string(v)); }

void CsvWriter::field_raw(const std::string& text) {
  CL_EXPECTS(col_in_row_ < cols_);
  if (col_in_row_) out_ << ',';
  out_ << text;
  ++col_in_row_;
}

std::vector<std::string> split_csv_line(std::string_view line) {
  // A CRLF line ending is fine; any other carriage return is data
  // corruption and rejected below rather than silently stripped.
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  std::vector<std::string> out;
  std::string cur;
  bool quoted = false;          // inside a quoted field
  bool closed = false;          // current field was quoted and has closed
  bool at_field_start = true;   // nothing consumed for the current field yet
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char ch = line[i];
    if (quoted) {
      if (ch == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          quoted = false;
          closed = true;
        }
      } else {
        cur += ch;
      }
      continue;
    }
    if (ch == ',') {
      out.push_back(std::move(cur));
      cur.clear();
      closed = false;
      at_field_start = true;
      continue;
    }
    // Once a quoted field has closed, only a separator may follow —
    // `"100"5` must not silently parse as `1005`.
    if (closed) {
      throw ParseError("garbage after closing quote in CSV field");
    }
    if (ch == '"') {
      if (!at_field_start) {
        throw ParseError("stray quote inside unquoted CSV field");
      }
      quoted = true;
      at_field_start = false;
      continue;
    }
    if (ch == '\r') {
      throw ParseError("stray carriage return inside CSV line");
    }
    cur += ch;
    at_field_start = false;
  }
  if (quoted) throw ParseError("unterminated quoted CSV field");
  out.push_back(std::move(cur));
  return out;
}

std::size_t CsvDocument::column(std::string_view name) const {
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return i;
  }
  throw ParseError("CSV column not found: " + std::string(name));
}

CsvDocument read_csv(std::istream& in) {
  CsvDocument doc;
  std::string line;
  if (!std::getline(in, line)) throw ParseError("empty CSV document");
  doc.header = split_csv_line(line);
  std::size_t lineno = 1;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    auto fields = split_csv_line(line);
    if (fields.size() != doc.header.size()) {
      throw ParseError("ragged CSV row at line " + std::to_string(lineno) +
                       ": expected " + std::to_string(doc.header.size()) +
                       " fields, got " + std::to_string(fields.size()));
    }
    doc.rows.push_back(std::move(fields));
    doc.lines.push_back(lineno);
  }
  return doc;
}

}  // namespace cl
