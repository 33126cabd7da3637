// Shared emitter-layer tests: value formatting, CSV quoting (including
// the carriage-return regression), JSON escaping, and the Table
// renderers every analysis surface (report, stats, diff) builds on.
#include "campaign/table.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

#include "attack/scenario.h"
#include "campaign/report.h"

namespace msa::campaign::table {
namespace {

TEST(FormatDouble, RoundTripsAndKeepsIntegralForm) {
  EXPECT_EQ(format_double(60.0), "60");
  EXPECT_EQ(format_double(-3.0), "-3");
  EXPECT_EQ(format_double(0.0), "0");
  EXPECT_EQ(format_double(4.0 * 1024 * 1024), "4194304");

  // Non-integral values round-trip exactly through strtod.
  for (const double v : {0.1, 1.0 / 3.0, 99.123456789, 1e-17, 2.5e20}) {
    const std::string s = format_double(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }

  EXPECT_EQ(format_double(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(format_double(-std::numeric_limits<double>::infinity()), "-inf");
  EXPECT_EQ(format_double(std::nan("")), "nan");
}

TEST(CsvEscape, QuotesDelimitersAndControlCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape(""), "");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("two\nlines"), "\"two\nlines\"");
}

TEST(CsvEscape, CarriageReturnTriggersQuoting) {
  // Regression: a bare CR used to pass through unquoted, splitting the
  // row in strict readers (RFC 4180 terminates records on CRLF).
  EXPECT_EQ(csv_escape("denied\rreason"), "\"denied\rreason\"");
  EXPECT_EQ(csv_escape("tail\r\n"), "\"tail\r\n\"");
}

TEST(CsvEscape, CarriageReturnInDenialReasonKeepsReportRowIntact) {
  // The end-to-end shape of the original bug: a denial reason carrying
  // "\r\n" must not add a row to SweepReport CSV.
  CellStats cell;
  cell.index = 0;
  cell.coords = {{"defense", AxisValue::of_string("baseline")},
                 {"model", AxisValue::of_string("m")}};
  cell.trials = 1;
  cell.denials = 1;
  cell.first_denial_reason = "firewall\r\nblocked";
  SweepReport report;
  report.cells.push_back(cell);

  const std::string csv = report.to_csv();
  // Header + one data row. A naive line count would see three: count
  // rows the way a strict CSV reader does, honoring quoted fields.
  std::size_t rows = 0;
  bool in_quotes = false;
  for (const char c : csv) {
    if (c == '"') in_quotes = !in_quotes;
    if (c == '\n' && !in_quotes) ++rows;
  }
  EXPECT_EQ(rows, 2u);
  EXPECT_NE(csv.find("\"firewall\r\nblocked\""), std::string::npos);
}

TEST(JsonEscape, EscapesControlAndStructuralCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("nl\ntab\t"), "nl\\ntab\\t");
  EXPECT_EQ(json_escape("cr\r"), "cr\\u000d");
}

TEST(JsonDouble, SentinelsForNonFinite) {
  EXPECT_EQ(json_double(1.5), "1.5");
  EXPECT_EQ(json_double(std::nan("")), "null");
  EXPECT_EQ(json_double(std::numeric_limits<double>::infinity()), "1e999");
  EXPECT_EQ(json_double(-std::numeric_limits<double>::infinity()), "-1e999");
}

TEST(Cells, PerFormatRenderings) {
  const Cell s = str_cell("a\"b");
  EXPECT_EQ(s.text(), "a\"b");
  EXPECT_EQ(s.csv(), "a\"b");  // escaped at emit time, not here
  EXPECT_EQ(s.json(), "\"a\\\"b\"");

  const Cell fixed3 = num_cell(1.0 / 3.0, 3);
  EXPECT_EQ(fixed3.text(), "0.333");
  EXPECT_EQ(std::strtod(fixed3.csv().c_str(), nullptr), 1.0 / 3.0);
  EXPECT_EQ(fixed3.json(), fixed3.csv());

  const Cell n = count_cell(18446744073709551615ULL);
  EXPECT_EQ(n.text(), "18446744073709551615");
  EXPECT_EQ(n.csv(), n.text());
  EXPECT_EQ(n.json(), n.text());

  const Cell b = bool_cell(true);
  EXPECT_EQ(b.text(), "yes");
  EXPECT_EQ(b.csv(), "true");
  EXPECT_EQ(b.json(), "true");
  EXPECT_EQ(bool_cell(false).text(), "no");
  EXPECT_EQ(bool_cell(false).json(), "false");

  // Axis bools print as the labels cell rows join marginals on.
  for (const bool flag : {true, false}) {
    const Cell axis = axis_value_cell(AxisValue::of_bool(flag));
    EXPECT_EQ(axis.text(), flag ? "1" : "0");
    EXPECT_EQ(axis.csv(), flag ? "1" : "0");
    EXPECT_EQ(axis.json(), flag ? "true" : "false");
  }

  const Cell ci =
      interval_cell(-0.0125, std::numeric_limits<double>::infinity());
  EXPECT_EQ(ci.text(), "[-0.013,inf]");
  EXPECT_EQ(ci.csv(), "[-0.013,inf]");
  EXPECT_EQ(ci.json(), "\"[-0.013,inf]\"");
  Table ci_table{{{"ci"}}};
  ci_table.add_row({ci});
  EXPECT_EQ(ci_table.to_csv(), "ci\n\"[-0.013,inf]\"\n");

  const Cell p = pvalue_cell(0.031746031746031744);
  EXPECT_EQ(p.text(), "0.0317");
  EXPECT_EQ(p.csv(), "0.031746031746031744");
  EXPECT_EQ(p.json(), "0.031746031746031744");
  EXPECT_EQ(pvalue_cell(std::nan("")).json(), "null");
  EXPECT_EQ(pvalue_cell(std::nan("")).text(), "nan");

  const Cell e = empty_cell();
  EXPECT_EQ(e.text(), "");
  EXPECT_EQ(e.csv(), "");
  EXPECT_EQ(e.json(), "null");
}

TEST(Fixed, MatchesPrintfAtEveryMagnitude) {
  std::mt19937_64 rng{0xf1eed};
  std::vector<double> values{0.0,    -0.0,  0.125, 0.375,   2.5,   -2.5,
                             0.0005, 1e-300, 1e22, 1e59,    -1e60, 1e300,
                             99.995, 0.9995, 5e-324, 123456.5};
  for (int i = 0; i < 2000; ++i) {
    values.push_back(std::bit_cast<double>(rng()));
    values.push_back(std::ldexp(double(rng() >> 11), int(rng() % 80) - 60));
  }
  for (const double v : values) {
    if (!std::isfinite(v)) continue;
    for (const int decimals : {0, 1, 2, 3, 4}) {
      char want[64];
      std::snprintf(want, sizeof want, "%.*f", decimals, v);
      EXPECT_EQ(fixed(v, decimals), want) << v << " at " << decimals;
    }
  }
}

Table two_column_fixture() {
  Table t{{{"name", Align::kLeft}, {"value", Align::kRight}}};
  t.add_row({str_cell("alpha"), num_cell(1.5)});
  t.add_row({str_cell("b"), num_cell(42.0)});
  return t;
}

TEST(Table, TextAlignsAndStripsTrailingSpace) {
  const std::string text = two_column_fixture().to_text();
  EXPECT_EQ(text,
            "name   value\n"
            "alpha    1.5\n"
            "b         42\n");
}

TEST(Table, CsvEmitsHeaderAndEscapedRows) {
  Table t{{{"name"}, {"note"}}};
  t.add_row({str_cell("a,b"), str_cell("cr\rhere")});
  EXPECT_EQ(t.to_csv(), "name,note\n\"a,b\",\"cr\rhere\"\n");
}

TEST(Table, JsonEmitsArrayOfObjects) {
  EXPECT_EQ(two_column_fixture().to_json(),
            "[{\"name\":\"alpha\",\"value\":1.5},"
            "{\"name\":\"b\",\"value\":42}]");
  Table empty{{{"x"}}};
  EXPECT_EQ(empty.to_json(), "[]");
}

TEST(Table, RejectsArityMismatchAndZeroColumns) {
  Table t{{{"only"}}};
  EXPECT_THROW(t.add_row({str_cell("a"), str_cell("b")}),
               std::invalid_argument);
  EXPECT_THROW(Table{std::vector<Column>{}}, std::invalid_argument);
}

TEST(Table, RenderingIsDeterministic) {
  const Table t = two_column_fixture();
  EXPECT_EQ(t.to_text(), two_column_fixture().to_text());
  EXPECT_EQ(t.to_csv(), two_column_fixture().to_csv());
  EXPECT_EQ(t.to_json(), two_column_fixture().to_json());
}

TEST(FullSuccessPredicate, SingleSharedDefinition) {
  // The hoisted predicate is the one ScenarioResult uses.
  attack::ScenarioResult r;
  r.model_identified_correctly = true;
  r.pixel_match = 1.0;
  EXPECT_TRUE(r.full_success());
  EXPECT_TRUE(attack::is_full_success(true, 1.0));

  r.pixel_match = attack::kFullSuccessPixelMatch;  // threshold is strict
  EXPECT_FALSE(r.full_success());
  EXPECT_FALSE(attack::is_full_success(true, attack::kFullSuccessPixelMatch));
  EXPECT_FALSE(attack::is_full_success(false, 1.0));
}

}  // namespace
}  // namespace msa::campaign::table
