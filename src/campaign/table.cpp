#include "campaign/table.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <system_error>

namespace msa::campaign::table {

namespace {

/// Appends "nan", "inf" or "-inf" for a non-finite value; false for a
/// finite one, which it leaves to the caller.
bool append_non_finite(std::string& out, double v) {
  if (std::isnan(v)) {
    out += "nan";
  } else if (std::isinf(v)) {
    out += v > 0 ? "inf" : "-inf";
  } else {
    return false;
  }
  return true;
}

/// format_double's characters, appended to `out`.
void append_double(std::string& out, double v) {
  if (append_non_finite(out, v)) return;
  char buf[64];
  // Magnitude check first: casting |v| >= 2^63 to long long is UB.
  const auto res =
      std::abs(v) < 1e15 && v == static_cast<double>(static_cast<long long>(v))
          ? std::to_chars(buf, buf + sizeof buf, static_cast<long long>(v))
          : std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

/// fixed()'s characters, appended to `out`.
void append_fixed(std::string& out, double v, int decimals) {
  if (append_non_finite(out, v)) return;
  // to_chars with a precision formats exactly as printf's "%.*f" does.
  // A value too wide for the buffer keeps the snprintf rendering, which
  // truncates to the buffer size less its terminator.
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf - 1, v,
                                 std::chars_format::fixed, decimals);
  if (res.ec == std::errc{}) {
    out.append(buf, res.ptr);
    return;
  }
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  out += buf;
}

void append_json_double(std::string& out, double v) {
  if (std::isnan(v)) {
    out += "null";
  } else if (std::isinf(v)) {
    out += v > 0 ? "1e999" : "-1e999";
  } else {
    append_double(out, v);
  }
}

void append_csv_escaped(std::string& out, const std::string& s) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) {
    out += s;
    return;
  }
  out += '"';
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}

void append_json_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_interval(std::string& out, const Cell& c) {
  out += '[';
  append_fixed(out, c.value, 3);
  out += ',';
  append_fixed(out, c.high, 3);
  out += ']';
}

/// The text rendering, and the raw CSV field (`csv`): the two differ
/// only for fixed-decimal numbers and yes/no bools.
void append_text_or_csv(std::string& out, const Cell& c, bool csv) {
  switch (c.kind) {
    case Cell::Kind::kEmpty: return;
    case Cell::Kind::kString: out += c.str; return;
    case Cell::Kind::kCount: {
      char buf[24];
      out.append(buf, std::to_chars(buf, buf + sizeof buf, c.count).ptr);
      return;
    }
    case Cell::Kind::kNumber:
      if (!csv && c.decimals >= 0) {
        append_fixed(out, c.value, c.decimals);
      } else {
        append_double(out, c.value);
      }
      return;
    case Cell::Kind::kInterval: append_interval(out, c); return;
    case Cell::Kind::kBool:
      out += csv ? (c.flag ? "true" : "false") : (c.flag ? "yes" : "no");
      return;
    case Cell::Kind::kAxisBool: out += c.flag ? '1' : '0'; return;
  }
}

void append_csv_field(std::string& out, const Cell& c) {
  switch (c.kind) {
    case Cell::Kind::kString: append_csv_escaped(out, c.str); return;
    case Cell::Kind::kInterval:  // "[low,high]" holds a comma: quoted
      out += '"';
      append_interval(out, c);
      out += '"';
      return;
    default: append_text_or_csv(out, c, true); return;
  }
}

void append_json_token(std::string& out, const Cell& c) {
  switch (c.kind) {
    case Cell::Kind::kEmpty: out += "null"; return;
    case Cell::Kind::kString:
      out += '"';
      append_json_escaped(out, c.str);
      out += '"';
      return;
    case Cell::Kind::kNumber: append_json_double(out, c.value); return;
    case Cell::Kind::kInterval:
      out += '"';
      append_interval(out, c);
      out += '"';
      return;
    case Cell::Kind::kBool:
    case Cell::Kind::kAxisBool: out += c.flag ? "true" : "false"; return;
    case Cell::Kind::kCount: append_text_or_csv(out, c, false); return;
  }
}

}  // namespace

std::string format_double(double v) {
  std::string out;
  append_double(out, v);
  return out;
}

std::string fixed(double v, int decimals) {
  std::string out;
  append_fixed(out, v, decimals);
  return out;
}

std::string csv_escape(const std::string& s) {
  std::string out;
  append_csv_escaped(out, s);
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_json_escaped(out, s);
  return out;
}

std::string json_double(double v) {
  std::string out;
  append_json_double(out, v);
  return out;
}

std::string Cell::text() const {
  std::string out;
  append_text_or_csv(out, *this, false);
  return out;
}

std::string Cell::csv() const {
  std::string out;
  append_text_or_csv(out, *this, true);
  return out;
}

std::string Cell::json() const {
  std::string out;
  append_json_token(out, *this);
  return out;
}

Cell str_cell(const std::string& s) {
  Cell c;
  c.kind = Cell::Kind::kString;
  c.str = s;
  return c;
}

Cell count_cell(std::uint64_t n) {
  Cell c;
  c.kind = Cell::Kind::kCount;
  c.count = n;
  return c;
}

Cell num_cell(double v) {
  Cell c;
  c.kind = Cell::Kind::kNumber;
  c.value = v;
  return c;
}

Cell num_cell(double v, int text_decimals) {
  Cell c = num_cell(v);
  c.decimals = static_cast<std::int8_t>(text_decimals);
  return c;
}

Cell bool_cell(bool b) {
  Cell c;
  c.kind = Cell::Kind::kBool;
  c.flag = b;
  return c;
}

Cell interval_cell(double low, double high) {
  Cell c;
  c.kind = Cell::Kind::kInterval;
  c.value = low;
  c.high = high;
  return c;
}

Cell pvalue_cell(double p) { return num_cell(p, 4); }

Cell empty_cell() { return Cell{}; }

Cell axis_value_cell(const AxisValue& v) {
  switch (v.kind) {
    case AxisKind::kString:
    case AxisKind::kEnum:
      return str_cell(v.str);
    case AxisKind::kDouble:
      return num_cell(v.num);
    case AxisKind::kBool: {
      Cell c = bool_cell(v.flag);
      c.kind = Cell::Kind::kAxisBool;
      return c;
    }
  }
  return empty_cell();
}

std::string axis_text_header(const std::string& axis) {
  return axis == "scrubber_Bps" ? "scrub_Bps" : axis;
}

Table::Table(std::vector<Column> columns) : columns_(std::move(columns)) {
  if (columns_.empty()) {
    throw std::invalid_argument("table: a table needs at least one column");
  }
}

void Table::add_row(std::vector<Cell> row) {
  if (row.size() != columns_.size()) {
    throw std::invalid_argument("table: row has " + std::to_string(row.size()) +
                                " cell(s), table has " +
                                std::to_string(columns_.size()) + " column(s)");
  }
  rows_.push_back(std::move(row));
}

std::string Table::to_text() const {
  // Each cell is rendered once; the strings serve both the width pass
  // and the emit pass.
  const std::size_t cols = columns_.size();
  std::vector<std::string> texts(rows_.size() * cols);
  std::vector<std::size_t> widths(cols);
  for (std::size_t c = 0; c < cols; ++c) widths[c] = columns_[c].name.size();
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      std::string& s = texts[r * cols + c];
      append_text_or_csv(s, rows_[r][c], false);
      widths[c] = std::max(widths[c], s.size());
    }
  }
  std::string out;
  auto emit_line = [&](auto&& cell_text) {
    const std::size_t start = out.size();
    for (std::size_t c = 0; c < cols; ++c) {
      if (c > 0) out += "  ";
      const std::string& s = cell_text(c);
      const std::size_t fill = widths[c] - s.size();
      if (columns_[c].align == Align::kRight) out.append(fill, ' ');
      out += s;
      if (columns_[c].align == Align::kLeft) out.append(fill, ' ');
    }
    while (out.size() > start && out.back() == ' ') out.pop_back();
    out += '\n';
  };
  emit_line([&](std::size_t c) -> const std::string& {
    return columns_[c].name;
  });
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    emit_line([&](std::size_t c) -> const std::string& {
      return texts[r * cols + c];
    });
  }
  return out;
}

std::string Table::to_csv() const {
  std::string out;
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    if (c > 0) out += ',';
    append_csv_escaped(out, columns_[c].name);
  }
  out += '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      if (c > 0) out += ',';
      append_csv_field(out, row[c]);
    }
    out += '\n';
  }
  return out;
}

std::string Table::to_json() const {
  std::string out = "[";
  bool first_row = true;
  for (const auto& row : rows_) {
    if (!first_row) out += ',';
    first_row = false;
    out += '{';
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      if (c > 0) out += ',';
      out += '"';
      append_json_escaped(out, columns_[c].name);
      out += "\":";
      append_json_token(out, row[c]);
    }
    out += '}';
  }
  out += ']';
  return out;
}

}  // namespace msa::campaign::table
