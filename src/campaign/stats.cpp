#include "campaign/stats.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "attack/scenario.h"
#include "campaign/table.h"
#include "obs/trace.h"
#include "persist/store_reader.h"
#include "util/parallel.h"

namespace msa::campaign {

namespace {

using table::Align;
using table::Cell;
using table::Column;
using table::Table;
using table::count_cell;
using table::empty_cell;
using table::format_double;
using table::num_cell;
using table::str_cell;

bool trial_full_success(const persist::TrialRecord& t) {
  return attack::is_full_success(t.model_identified, t.pixel_match);
}

/// The SweepData ordering analyze_sweep walks by: cells strictly
/// ascending by index, trials strictly ascending by (cell, trial).
void check_sweep_order(const persist::SweepData& data) {
  const auto cell_out_of_order = std::adjacent_find(
      data.cells.begin(), data.cells.end(),
      [](const CellStats& a, const CellStats& b) { return a.index >= b.index; });
  if (cell_out_of_order != data.cells.end()) {
    throw std::invalid_argument(
        "stats: cell " + std::to_string(std::next(cell_out_of_order)->index) +
        " is out of order (cells must ascend by index, without duplicates)");
  }
  const auto trial_out_of_order = std::adjacent_find(
      data.trials.begin(), data.trials.end(),
      [](const persist::TrialRecord& a, const persist::TrialRecord& b) {
        return a.key() >= b.key();
      });
  if (trial_out_of_order != data.trials.end()) {
    const persist::TrialRecord& t = *std::next(trial_out_of_order);
    throw std::invalid_argument(
        "stats: trial (" + std::to_string(t.cell_index) + ", " +
        std::to_string(t.trial) +
        ") is out of order (trials must ascend by (cell, trial), without "
        "duplicates)");
  }
}

}  // namespace

WilsonInterval wilson_interval(std::size_t successes, std::size_t trials,
                               double z) {
  if (trials == 0) return {0.0, 1.0};
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  return {std::max(0.0, center - half), std::min(1.0, center + half)};
}

namespace {

/// Position of the nearest-rank q-th percentile in a sorted sample of
/// `size` values: the smallest value with at least q% of the sample at
/// or below it.
std::size_t nearest_rank_index(std::size_t size, double q) {
  if (size == 0) {
    throw std::invalid_argument("stats: percentile of an empty sample");
  }
  if (q <= 0.0) return 0;
  if (q >= 100.0) return size - 1;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(size)));
  return std::min(size - 1, rank == 0 ? 0 : rank - 1);
}

/// Ranges this short are insertion-sorted rather than partitioned.
constexpr std::size_t kInsertionSortMax = 12;

/// Moves the k-th smallest value of a[lo, hi) to a[k], with no larger
/// value before it and no smaller one after it in [lo, hi). Each round
/// partitions around the median of three with Lomuto passes that do not
/// branch on the data: every step swaps, and the comparison only moves
/// the boundary. The first pass gathers the values below the pivot, the
/// pivot goes to the boundary, and a second pass gathers the values
/// equal to it, so a run of ties ends the search in one round. The
/// pivot itself always settles, so the loop ends even when every
/// comparison is false (NaNs).
void select_rank(double* a, std::size_t lo, std::size_t hi, std::size_t k) {
  while (hi - lo > kInsertionSortMax) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (a[mid] < a[lo]) std::swap(a[mid], a[lo]);
    if (a[hi - 1] < a[lo]) std::swap(a[hi - 1], a[lo]);
    if (a[hi - 1] < a[mid]) std::swap(a[hi - 1], a[mid]);
    std::swap(a[mid], a[hi - 1]);
    const double pivot = a[hi - 1];
    std::size_t below = lo;  // a[lo, below) < pivot
    for (std::size_t i = lo; i + 1 < hi; ++i) {
      const double x = a[i];
      const bool less = x < pivot;
      a[i] = a[below];
      a[below] = x;
      below += less;
    }
    a[hi - 1] = a[below];
    a[below] = pivot;
    std::size_t equal = below + 1;  // a[below, equal) == pivot
    for (std::size_t i = equal; i < hi; ++i) {
      const double x = a[i];
      const bool same = x == pivot;
      a[i] = a[equal];
      a[equal] = x;
      equal += same;
    }
    if (k < below) {
      hi = below;
    } else if (k < equal) {
      return;
    } else {
      lo = equal;
    }
  }
  for (std::size_t i = lo + 1; i < hi; ++i) {
    const double x = a[i];
    std::size_t j = i;
    for (; j > lo && x < a[j - 1]; --j) a[j] = a[j - 1];
    a[j] = x;
  }
}

}  // namespace

double percentile_sorted(const std::vector<double>& sorted, double q) {
  return sorted[nearest_rank_index(sorted.size(), q)];
}

Percentiles select_percentiles(std::vector<double>& sample) {
  // After selecting rank k, everything past k is >= it, so the next
  // (higher) rank is selected among those alone — leaving k in place.
  std::size_t from = 0;
  const auto select = [&](double q) {
    const std::size_t k = nearest_rank_index(sample.size(), q);
    if (k >= from) {
      select_rank(sample.data(), from, sample.size(), k);
      from = k + 1;
    }
    return sample[k];
  };
  const double p50 = select(50.0);
  const double p90 = select(90.0);
  return {p50, p90, select(99.0)};
}

CellSummary StatsBuilder::summarize(
    const CellStats& cell, std::span<const persist::TrialRecord> trials) {
  if (trials.empty()) {
    throw std::runtime_error(
        "stats: completed cell " + std::to_string(cell.index) +
        " has no trial records (incompatible or hand-edited store)");
  }
  CellSummary out;
  CellDistribution& dist = out.dist;
  dist.index = cell.index;
  dist.coords = cell.coords;
  dist.trials = trials.size();

  std::vector<double> psnrs;
  psnrs.reserve(trials.size());
  for (const persist::TrialRecord& t : trials) {
    if (trial_full_success(t)) ++dist.successes;
    if (t.denied) ++dist.denials;
    psnrs.push_back(t.psnr);
    out.psnr_sum += t.psnr;
  }
  const Percentiles psnr = select_percentiles(psnrs);
  dist.p50_psnr = psnr.p50;
  dist.p90_psnr = psnr.p90;
  dist.p99_psnr = psnr.p99;
  dist.success_rate =
      static_cast<double>(dist.successes) / static_cast<double>(dist.trials);
  dist.success_ci = wilson_interval(dist.successes, dist.trials);
  return out;
}

void StatsBuilder::fold(CellSummary summary) {
  CellDistribution& dist = summary.dist;
  report_.trials_analyzed += dist.trials;
  for (const AxisCoordinate& coord : dist.coords) {
    if (std::find(axis_order_.begin(), axis_order_.end(), coord.axis) ==
        axis_order_.end()) {
      axis_order_.push_back(coord.axis);
    }
    const auto [it, inserted] =
        marginals_.try_emplace({coord.axis, coord.value.label()});
    Marginal& acc = it->second;
    if (inserted) acc.order = marginals_.size() - 1;
    acc.trials += dist.trials;
    acc.successes += dist.successes;
    acc.denials += dist.denials;
    acc.psnr_sum += summary.psnr_sum;
  }

  report_.cells.push_back(std::move(dist));
}

StatsReport StatsBuilder::finish() && {
  // Axis blocks in schema order (first appearance across cells — every
  // cell of one sweep shares the schema); values by first appearance
  // (== grid order, since cells ascend by index).
  for (const std::string& axis : axis_order_) {
    std::vector<std::pair<std::size_t, std::pair<std::string, Marginal>>>
        entries;
    for (const auto& [key, acc] : marginals_) {
      if (key.first != axis) continue;
      entries.push_back({acc.order, {key.second, acc}});
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [order, entry] : entries) {
      const auto& [value, acc] = entry;
      AxisMarginal m;
      m.axis = axis;
      m.value = value;
      m.trials = acc.trials;
      m.successes = acc.successes;
      m.denials = acc.denials;
      m.success_rate = acc.trials == 0
                           ? 0.0
                           : static_cast<double>(acc.successes) /
                                 static_cast<double>(acc.trials);
      m.success_ci = wilson_interval(acc.successes, acc.trials);
      m.mean_psnr = acc.trials == 0
                        ? 0.0
                        : acc.psnr_sum / static_cast<double>(acc.trials);
      report_.marginals.push_back(std::move(m));
    }
  }
  return std::move(report_);
}

StatsReport analyze_sweep(const persist::SweepData& data) {
  TRACE_SPAN("campaign", "analyze_sweep");
  check_sweep_order(data);
  // Both streams ascend, so each completed cell's trials are one
  // contiguous run; trials between runs belong to no completed cell.
  StatsBuilder builder;
  const std::span<const persist::TrialRecord> trials{data.trials};
  auto next = trials.begin();
  for (const CellStats& cell : data.cells) {
    const auto first = std::find_if(next, trials.end(), [&](const auto& t) {
      return t.cell_index >= cell.index;
    });
    const auto last = std::find_if(first, trials.end(), [&](const auto& t) {
      return t.cell_index != cell.index;
    });
    builder.add_orphans(static_cast<std::size_t>(first - next));
    builder.add_cell(cell, {first, last});
    next = last;
  }
  builder.add_orphans(static_cast<std::size_t>(trials.end() - next));
  return std::move(builder).finish();
}

namespace {

/// Chunks per worker when there are several: enough that a worker the
/// machine slows down leaves most of its share to the others. One
/// worker walks the whole range as one chunk.
constexpr std::size_t kChunksPerWorker = 8;

/// One chunk of a walk summarized: its cells in index order, its
/// orphan trials, and the duplicates its slice of the walk dropped.
struct ChunkSummary {
  std::vector<CellSummary> cells;
  std::size_t orphans = 0;
  std::size_t duplicate_cells = 0;
  std::size_t duplicate_trials = 0;
};

}  // namespace

SweepAnalysis analyze_stores(const std::vector<std::string>& paths,
                             const persist::CellFilter& filter,
                             unsigned threads) {
  TRACE_SPAN("campaign", "analyze_sweep");
  const persist::SweepWalk walk{paths, filter};
  const unsigned workers = util::workers_for(walk.trial_records(), threads);
  // Chunk c covers an even share of the grid's index range; the last one
  // also takes any cell past it (orphan trials of a damaged store).
  const std::uint64_t grid = walk.info().manifest.grid_cells;
  const std::size_t chunks =
      workers == 1 ? 1 : std::size_t{workers} * kChunksPerWorker;
  const auto bound = [&](std::size_t c) -> std::uint64_t {
    if (c == chunks) return std::numeric_limits<std::uint64_t>::max();
    return grid / chunks * c + std::min<std::uint64_t>(c, grid % chunks);
  };
  std::vector<ChunkSummary> summaries(chunks);
  {
    TRACE_SPAN("persist", "walk_sweep");
    util::parallel_for(workers, chunks, [&](std::size_t c) {
      persist::SweepWalk slice = walk.slice(bound(c), bound(c + 1));
      ChunkSummary& chunk = summaries[c];
      while (const std::optional<persist::CellTrials> cell = slice.next()) {
        if (cell->stats == nullptr) {
          chunk.orphans += cell->trials.size();
        } else {
          chunk.cells.push_back(
              StatsBuilder::summarize(*cell->stats, cell->trials));
        }
      }
      chunk.duplicate_cells = slice.info().duplicate_cells;
      chunk.duplicate_trials = slice.info().duplicate_trials;
    });
  }
  // Folded here in index order, so every double is added in the order a
  // serial walk adds it.
  StatsBuilder builder;
  SweepAnalysis out{{}, walk.info()};
  for (ChunkSummary& chunk : summaries) {
    for (CellSummary& cell : chunk.cells) builder.fold(std::move(cell));
    builder.add_orphans(chunk.orphans);
    out.info.duplicate_cells += chunk.duplicate_cells;
    out.info.duplicate_trials += chunk.duplicate_trials;
  }
  out.report = std::move(builder).finish();
  return out;
}

namespace {

/// Text tables combine the CI bounds into one "[low,high]" column; the
/// CSV/JSON emitters below split them so consumers get plain numbers.
Cell ci_cell(const WilsonInterval& ci) {
  return table::interval_cell(ci.low, ci.high);
}

/// Axis columns of this report: the first cell's coordinate order, the
/// legacy four when there are no cells (header-only output keeps its
/// historical shape).
std::vector<std::string> axis_columns(
    const std::vector<CellDistribution>& cells) {
  if (cells.empty()) return legacy_axis_names();
  std::vector<std::string> names;
  names.reserve(cells.front().coords.size());
  for (const AxisCoordinate& c : cells.front().coords) names.push_back(c.axis);
  return names;
}

using table::axis_text_header;
using table::axis_value_cell;

}  // namespace

std::string StatsReport::to_text() const {
  std::string out;
  out += "== per-cell distributions (" + std::to_string(cells.size()) +
         " cells, " + std::to_string(trials_analyzed) + " trials";
  if (orphan_trials > 0) {
    out += ", " + std::to_string(orphan_trials) + " orphan trials excluded";
  }
  out += ") ==\n";
  const std::vector<std::string> axes = axis_columns(cells);
  std::vector<Column> cell_columns{{"index", Align::kLeft}};
  for (const std::string& axis : axes) {
    // String-valued axes read better left-aligned, numeric ones right.
    const AxisValue* v =
        cells.empty() ? nullptr : find_coord(cells.front().coords, axis);
    const bool textual = v != nullptr && (v->kind == AxisKind::kString ||
                                          v->kind == AxisKind::kEnum);
    cell_columns.push_back(
        {axis_text_header(axis), textual ? Align::kLeft : Align::kRight});
  }
  for (const char* name : {"trials", "success", "ci95", "denials", "p50_psnr",
                           "p90_psnr", "p99_psnr"}) {
    cell_columns.push_back({name, Align::kRight});
  }
  Table cell_table{std::move(cell_columns)};
  for (const CellDistribution& c : cells) {
    std::vector<Cell> row{count_cell(c.index)};
    for (const AxisCoordinate& coord : c.coords) {
      row.push_back(axis_value_cell(coord.value));
    }
    row.push_back(count_cell(c.trials));
    row.push_back(num_cell(c.success_rate, 3));
    row.push_back(ci_cell(c.success_ci));
    row.push_back(count_cell(c.denials));
    row.push_back(num_cell(c.p50_psnr, 2));
    row.push_back(num_cell(c.p90_psnr, 2));
    row.push_back(num_cell(c.p99_psnr, 2));
    cell_table.add_row(std::move(row));
  }
  out += cell_table.to_text();

  out += "\n== per-axis marginals ==\n";
  Table marginal_table{{{"axis", Align::kLeft},
                        {"value", Align::kLeft},
                        {"trials", Align::kRight},
                        {"success", Align::kRight},
                        {"ci95", Align::kRight},
                        {"denials", Align::kRight},
                        {"mean_psnr", Align::kRight}}};
  for (const AxisMarginal& m : marginals) {
    marginal_table.add_row({str_cell(m.axis), str_cell(m.value),
                            count_cell(m.trials), num_cell(m.success_rate, 3),
                            ci_cell(m.success_ci), count_cell(m.denials),
                            num_cell(m.mean_psnr, 2)});
  }
  out += marginal_table.to_text();
  return out;
}

std::string StatsReport::to_csv() const {
  const std::vector<std::string> axes = axis_columns(cells);
  std::vector<Column> columns{{"section"}, {"index"}};
  for (const std::string& axis : axes) columns.push_back({axis});
  for (const char* name :
       {"axis", "value", "trials", "successes", "denials", "success_rate",
        "ci95_low", "ci95_high", "p50_psnr", "p90_psnr", "p99_psnr",
        "mean_psnr"}) {
    columns.push_back({name});
  }
  Table t{std::move(columns)};
  for (const CellDistribution& c : cells) {
    std::vector<Cell> row{str_cell("cell"), count_cell(c.index)};
    for (const AxisCoordinate& coord : c.coords) {
      row.push_back(axis_value_cell(coord.value));
    }
    row.push_back(empty_cell());  // axis
    row.push_back(empty_cell());  // value
    row.push_back(count_cell(c.trials));
    row.push_back(count_cell(c.successes));
    row.push_back(count_cell(c.denials));
    row.push_back(num_cell(c.success_rate));
    row.push_back(num_cell(c.success_ci.low));
    row.push_back(num_cell(c.success_ci.high));
    row.push_back(num_cell(c.p50_psnr));
    row.push_back(num_cell(c.p90_psnr));
    row.push_back(num_cell(c.p99_psnr));
    row.push_back(empty_cell());  // mean_psnr
    t.add_row(std::move(row));
  }
  for (const AxisMarginal& m : marginals) {
    std::vector<Cell> row{str_cell("marginal"), empty_cell()};
    for (std::size_t i = 0; i < axes.size(); ++i) row.push_back(empty_cell());
    row.push_back(str_cell(m.axis));
    row.push_back(str_cell(m.value));
    row.push_back(count_cell(m.trials));
    row.push_back(count_cell(m.successes));
    row.push_back(count_cell(m.denials));
    row.push_back(num_cell(m.success_rate));
    row.push_back(num_cell(m.success_ci.low));
    row.push_back(num_cell(m.success_ci.high));
    row.push_back(empty_cell());  // p50_psnr
    row.push_back(empty_cell());  // p90_psnr
    row.push_back(empty_cell());  // p99_psnr
    row.push_back(num_cell(m.mean_psnr));
    t.add_row(std::move(row));
  }
  return t.to_csv();
}

std::string StatsReport::to_json() const {
  const std::vector<std::string> axes = axis_columns(cells);
  std::vector<Column> cell_columns{{"index"}};
  for (const std::string& axis : axes) cell_columns.push_back({axis});
  for (const char* name :
       {"trials", "successes", "denials", "success_rate", "ci95_low",
        "ci95_high", "p50_psnr", "p90_psnr", "p99_psnr"}) {
    cell_columns.push_back({name});
  }
  Table cell_table{std::move(cell_columns)};
  for (const CellDistribution& c : cells) {
    std::vector<Cell> row{count_cell(c.index)};
    for (const AxisCoordinate& coord : c.coords) {
      row.push_back(axis_value_cell(coord.value));
    }
    row.push_back(count_cell(c.trials));
    row.push_back(count_cell(c.successes));
    row.push_back(count_cell(c.denials));
    row.push_back(num_cell(c.success_rate));
    row.push_back(num_cell(c.success_ci.low));
    row.push_back(num_cell(c.success_ci.high));
    row.push_back(num_cell(c.p50_psnr));
    row.push_back(num_cell(c.p90_psnr));
    row.push_back(num_cell(c.p99_psnr));
    cell_table.add_row(std::move(row));
  }
  Table marginal_table{{{"axis"},         {"value"},    {"trials"},
                        {"successes"},    {"denials"},  {"success_rate"},
                        {"ci95_low"},     {"ci95_high"}, {"mean_psnr"}}};
  for (const AxisMarginal& m : marginals) {
    marginal_table.add_row(
        {str_cell(m.axis), str_cell(m.value), count_cell(m.trials),
         count_cell(m.successes), count_cell(m.denials),
         num_cell(m.success_rate), num_cell(m.success_ci.low),
         num_cell(m.success_ci.high), num_cell(m.mean_psnr)});
  }
  std::string out = "{\"trials_analyzed\":" + std::to_string(trials_analyzed);
  out += ",\"orphan_trials\":" + std::to_string(orphan_trials);
  out += ",\"cells\":" + cell_table.to_json();
  out += ",\"marginals\":" + marginal_table.to_json();
  out += '}';
  return out;
}

}  // namespace msa::campaign
