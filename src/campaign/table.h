// Shared table-emission layer for every campaign analysis surface
// (SweepReport CSV/JSON, `stats`, `diff`). One definition of the value
// formats — shortest-round-trip doubles, RFC-4180 CSV quoting, JSON
// escaping — so the emitters cannot drift apart, plus a small Table
// abstraction that renders the same rows as an aligned text table, a
// strict single-header CSV, or a JSON array of objects. All output is
// byte-stable: no locale, no pointers, no timestamps.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/axis.h"

namespace msa::campaign::table {

/// Shortest round-trip-exact decimal form (std::to_chars), with "inf" /
/// "-inf" / "nan" spelled out so CSV output agrees byte-for-byte across
/// runs. Integral values keep their plain form ("60", not "6e+01").
[[nodiscard]] std::string format_double(double v);

/// Fixed decimals for human-facing text columns (alignment beats
/// round-tripping there).
[[nodiscard]] std::string fixed(double v, int decimals);

/// RFC-4180 field quoting: the field is wrapped in double quotes (with
/// embedded quotes doubled) when it contains a comma, quote, newline, or
/// carriage return. `\r` is in the trigger set deliberately — a bare CR
/// inside an unquoted field splits the row in most strict readers.
[[nodiscard]] std::string csv_escape(const std::string& s);

/// JSON string-body escaping (caller supplies the surrounding quotes).
[[nodiscard]] std::string json_escape(const std::string& s);

/// JSON numeric token. JSON has no literal for infinity or NaN: NaN
/// becomes null, infinities the overflow sentinels +/-1e999 (documented
/// in README).
[[nodiscard]] std::string json_double(double v);

/// One table cell: a typed value, rendered in a format only when that
/// format is emitted — a report prints one of text, CSV and JSON, so the
/// other two are never formatted. The renderings may legitimately
/// differ: a rate prints with fixed decimals in text but round-trip-exact
/// in CSV, and JSON needs a typed token (quoted string, bare number,
/// true/false, null). Build cells with the factories below.
struct Cell {
  enum class Kind : std::uint8_t {
    kEmpty,     ///< blank text/CSV field, JSON null
    kString,    ///< `str`
    kCount,     ///< `count`
    kNumber,    ///< `value`; text at `decimals` fixed decimals when >= 0
    kInterval,  ///< [`value`, `high`] at 3 decimals, as one string
    kBool,      ///< `flag`: yes/no in text, true/false in CSV and JSON
    kAxisBool,  ///< `flag`: 1/0 in text and CSV, true/false in JSON
  };
  Kind kind = Kind::kEmpty;
  std::int8_t decimals = -1;
  bool flag = false;
  std::uint64_t count = 0;
  double value = 0.0;
  double high = 0.0;
  std::string str;

  /// Text-table rendering (padded on emit).
  [[nodiscard]] std::string text() const;
  /// Raw CSV field (escaped on emit).
  [[nodiscard]] std::string csv() const;
  /// Complete JSON token, already escaped/quoted.
  [[nodiscard]] std::string json() const;
};

[[nodiscard]] Cell str_cell(const std::string& s);
[[nodiscard]] Cell count_cell(std::uint64_t n);
/// Round-trip-exact in every format.
[[nodiscard]] Cell num_cell(double v);
/// Fixed `text_decimals` in text, round-trip-exact in CSV/JSON.
[[nodiscard]] Cell num_cell(double v, int text_decimals);
[[nodiscard]] Cell bool_cell(bool b);  ///< text yes/no, CSV/JSON true/false
/// "[low,high]" at 3 decimals — the one rendering of a confidence
/// interval every text table shares (CSV/JSON split the bounds into
/// numeric columns instead).
[[nodiscard]] Cell interval_cell(double low, double high);
/// P-value cell shared by the diff and gate surfaces: fixed 4 decimals
/// in text (a human reads "0.0317"; more digits is noise), round-trip
/// exact in CSV/JSON so thresholds can be re-applied downstream.
[[nodiscard]] Cell pvalue_cell(double p);
/// Blank text/CSV field, JSON null — for columns another section of a
/// flat CSV does not populate.
[[nodiscard]] Cell empty_cell();
/// Axis-value cell shared by the stats and diff emitters: canonical
/// label in text/CSV ("0"/"1" for bools, so cell rows join against
/// marginal `value` fields verbatim), typed token in JSON.
[[nodiscard]] Cell axis_value_cell(const AxisValue& v);
/// Text-table header for an axis column. Text tables have always
/// abbreviated scrubber_Bps to scrub_Bps for width; keeping the mapping
/// keeps pre-refactor text output byte-stable.
[[nodiscard]] std::string axis_text_header(const std::string& axis);

enum class Align : std::uint8_t { kLeft, kRight };

struct Column {
  std::string name;  ///< CSV header field and JSON object key
  Align align = Align::kRight;
};

/// Column-typed row collection with three renderers. Rendering is a pure
/// function of (columns, rows): text pads every column to its widest
/// member, CSV emits one header plus one line per row, JSON emits an
/// array of one object per row keyed by column name.
class Table {
 public:
  explicit Table(std::vector<Column> columns);

  /// Throws std::invalid_argument when the row arity mismatches the
  /// column set (a programming error in the caller).
  void add_row(std::vector<Cell> row);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

  /// Aligned fixed-width table, two-space gutters, no trailing spaces.
  [[nodiscard]] std::string to_text() const;
  /// Strict CSV: header row, then every row with exactly one field per
  /// column, quoted per csv_escape.
  [[nodiscard]] std::string to_csv() const;
  /// JSON array of objects ("[]" when empty) — callers wrap it in their
  /// own envelope.
  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<Column> columns_;
  std::vector<std::vector<Cell>> rows_;
};

}  // namespace msa::campaign::table
