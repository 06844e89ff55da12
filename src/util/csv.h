// csv.h — minimal CSV reading/writing for trace files and bench output.
//
// The format is deliberately simple (no quoting of commas inside fields is
// needed by any consumelocal producer); the reader still handles quoted
// fields for robustness against externally produced traces.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace cl {

/// Incremental CSV row writer.
///
/// Usage:
///   CsvWriter w(out, {"a", "b"});
///   w.row(1, "x");
class CsvWriter {
 public:
  /// Writes the header row immediately. The stream must outlive the writer.
  CsvWriter(std::ostream& out, const std::vector<std::string>& header);

  /// Writes one row; each argument is formatted with operator<< except that
  /// doubles use shortest round-trip formatting.
  template <class... Ts>
  void row(const Ts&... fields) {
    begin_row();
    (field(fields), ...);
    end_row();
  }

  [[nodiscard]] std::size_t rows_written() const { return rows_; }

 private:
  void begin_row();
  void end_row();
  void field(double v);
  void field(const std::string& v);
  void field(const char* v);
  template <class T>
  void field(const T& v) {
    field_raw(std::to_string(v));
  }
  void field_raw(const std::string& text);

  std::ostream& out_;
  std::size_t cols_;
  std::size_t col_in_row_ = 0;
  std::size_t rows_ = 0;
};

/// Splits one CSV line into fields, honouring double-quoted fields with
/// doubled-quote escapes.
[[nodiscard]] std::vector<std::string> split_csv_line(std::string_view line);

/// Parses an entire CSV document (first row is the header).
struct CsvDocument {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
  /// 1-based line of each row within the document (the header is line 1;
  /// blank lines are skipped but counted).
  std::vector<std::size_t> lines;

  /// Index of a header column; throws cl::ParseError when absent.
  [[nodiscard]] std::size_t column(std::string_view name) const;
};

/// Reads a CSV document from a stream. Throws cl::ParseError on ragged rows.
[[nodiscard]] CsvDocument read_csv(std::istream& in);

}  // namespace cl
