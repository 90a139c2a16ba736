#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <utility>

#include "storage/filter.h"
#include "storage/point_table.h"
#include "storage/sorted_dataset.h"
#include "workload/datagen.h"

namespace geoblocks::storage {
namespace {

Schema TwoColSchema() {
  Schema s;
  s.column_names = {"a", "b"};
  return s;
}

PointTable SmallTable() {
  PointTable t(TwoColSchema());
  t.AddRow({10, 10}, {1.0, 100.0});
  t.AddRow({20, 20}, {2.0, 200.0});
  t.AddRow({30, 30}, {3.0, 300.0});
  return t;
}

TEST(SchemaTest, ColumnIndex) {
  const Schema s = TwoColSchema();
  EXPECT_EQ(s.ColumnIndex("a"), 0);
  EXPECT_EQ(s.ColumnIndex("b"), 1);
  EXPECT_EQ(s.ColumnIndex("missing"), -1);
  EXPECT_EQ(s.num_columns(), 2u);
}

TEST(PointTableTest, AddAndRead) {
  const PointTable t = SmallTable();
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_EQ(t.Location(1), (geo::Point{20, 20}));
  EXPECT_EQ(t.Value(2, 1), 300.0);
  EXPECT_GT(t.MemoryBytes(), 0u);
}

TEST(FilterTest, Predicates) {
  EXPECT_TRUE((Predicate{0, CompareOp::kGe, 4.0}.Matches(4.0)));
  EXPECT_FALSE((Predicate{0, CompareOp::kGt, 4.0}.Matches(4.0)));
  EXPECT_TRUE((Predicate{0, CompareOp::kLt, 4.0}.Matches(3.9)));
  EXPECT_FALSE((Predicate{0, CompareOp::kLe, 4.0}.Matches(4.1)));
  EXPECT_TRUE((Predicate{0, CompareOp::kEq, 1.0}.Matches(1.0)));
  EXPECT_TRUE((Predicate{0, CompareOp::kNe, 1.0}.Matches(2.0)));
}

TEST(FilterTest, Conjunction) {
  Filter f;
  f.Add({0, CompareOp::kGe, 1.5});
  f.Add({1, CompareOp::kLt, 250.0});
  const PointTable t = SmallTable();
  const auto row_values = [&](size_t row) {
    return [&, row](int col) { return t.Value(row, col); };
  };
  EXPECT_FALSE(f.Matches(row_values(0)));  // a too small
  EXPECT_TRUE(f.Matches(row_values(1)));
  EXPECT_FALSE(f.Matches(row_values(2)));  // b too big
}

TEST(FilterTest, EmptyFilterMatchesEverything) {
  const Filter f = Filter::True();
  EXPECT_TRUE(f.IsTrue());
  EXPECT_TRUE(f.Matches([](int) { return -1e30; }));
}

TEST(FilterTest, ToString) {
  Filter f;
  f.Add({1, CompareOp::kGt, 20.0});
  const std::string s = f.ToString({"fare", "distance"});
  EXPECT_NE(s.find("distance"), std::string::npos);
  EXPECT_NE(s.find(">"), std::string::npos);
  EXPECT_EQ(Filter::True().ToString({}), "true");
}

TEST(ExtractTest, SortsByKey) {
  std::mt19937_64 rng(2);
  std::uniform_real_distribution<double> lon(-74.2, -73.7);
  std::uniform_real_distribution<double> lat(40.5, 40.9);
  PointTable t(TwoColSchema());
  for (int i = 0; i < 5000; ++i) {
    t.AddRow({lon(rng), lat(rng)}, {static_cast<double>(i), 0.0});
  }
  const SortedDataset data = SortedDataset::Extract(t, ExtractOptions{});
  ASSERT_EQ(data.num_rows(), 5000u);
  for (size_t i = 1; i < data.num_rows(); ++i) {
    ASSERT_LE(data.keys()[i - 1], data.keys()[i]);
  }
  // Keys match the locations.
  for (size_t i = 0; i < data.num_rows(); i += 97) {
    const cell::CellId expected = cell::CellId::FromPoint(
        data.projection().ToUnit(data.Location(i)));
    ASSERT_EQ(data.keys()[i], expected.id());
  }
}

TEST(ExtractTest, RowsStayAligned) {
  // After sorting, (x, y, columns) of each row must still belong together.
  PointTable t(TwoColSchema());
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> u(-80.0, -70.0);
  for (int i = 0; i < 1000; ++i) {
    const double x = u(rng);
    const double y = u(rng) + 110.0;  // 30..40 lat
    t.AddRow({x, y}, {x + y, x - y});
  }
  const SortedDataset data = SortedDataset::Extract(t, ExtractOptions{});
  for (size_t i = 0; i < data.num_rows(); ++i) {
    const geo::Point loc = data.Location(i);
    ASSERT_DOUBLE_EQ(data.Value(i, 0), loc.x + loc.y);
    ASSERT_DOUBLE_EQ(data.Value(i, 1), loc.x - loc.y);
  }
}

TEST(ExtractTest, CleansOutliers) {
  PointTable t(TwoColSchema());
  t.AddRow({-73.9, 40.7}, {1, 1});
  t.AddRow({0.0, 0.0}, {2, 2});                    // outside clean bounds
  t.AddRow({std::nan(""), 40.7}, {3, 3});          // NaN location
  t.AddRow({-73.95, 40.75}, {4, 4});
  ExtractOptions options;
  options.clean_bounds = geo::Rect{{-74.3, 40.4}, {-73.6, 41.0}};
  const SortedDataset data = SortedDataset::Extract(t, options);
  EXPECT_EQ(data.num_rows(), 2u);
}

TEST(ExtractTest, DeterministicForEqualKeys) {
  PointTable t(TwoColSchema());
  for (int i = 0; i < 10; ++i) {
    t.AddRow({-73.9, 40.7}, {static_cast<double>(i), 0});  // same leaf cell
  }
  const SortedDataset data = SortedDataset::Extract(t, ExtractOptions{});
  for (size_t i = 0; i < data.num_rows(); ++i) {
    ASSERT_DOUBLE_EQ(data.Value(i, 0), static_cast<double>(i));
  }
}

TEST(ExtractTest, CollectsGridCells) {
  std::mt19937_64 rng(4);
  std::uniform_real_distribution<double> lon(-74.2, -73.7);
  std::uniform_real_distribution<double> lat(40.5, 40.9);
  PointTable t(TwoColSchema());
  for (int i = 0; i < 2000; ++i) {
    t.AddRow({lon(rng), lat(rng)}, {0, 0});
  }
  ExtractOptions options;
  options.collect_cells_level = 12;
  const SortedDataset data = SortedDataset::Extract(t, options);
  const auto& cells = data.collected_cells();
  ASSERT_FALSE(cells.empty());
  // Collected cells are distinct, sorted, at the right level, and every row
  // key belongs to one of them.
  for (size_t i = 1; i < cells.size(); ++i) {
    ASSERT_LT(cells[i - 1], cells[i]);
  }
  for (uint64_t c : cells) {
    ASSERT_EQ(cell::CellId(c).level(), 12);
  }
  size_t idx = 0;
  for (uint64_t key : data.keys()) {
    while (idx < cells.size() &&
           !cell::CellId(cells[idx]).Contains(cell::CellId(key))) {
      ++idx;
    }
    ASSERT_LT(idx, cells.size());
  }
}

/// The comparison-sort extract that the radix sort replaced: std::sort of
/// (key, row) pairs by key, then row, and a row-wise gather of the payload.
/// Extract must reproduce its output bit for bit.
struct ReferenceExtract {
  std::vector<uint64_t> keys;
  std::vector<double> xs;
  std::vector<double> ys;
  std::vector<std::vector<double>> columns;
  std::vector<uint64_t> cells;
};

ReferenceExtract ExtractByComparisonSort(const PointTable& raw,
                                         const ExtractOptions& options) {
  const geo::Rect clean = options.clean_bounds.IsEmpty()
                              ? options.projection.domain()
                              : options.clean_bounds;
  std::vector<std::pair<uint64_t, uint32_t>> pairs;
  for (size_t r = 0; r < raw.num_rows(); ++r) {
    const geo::Point loc = raw.Location(r);
    if (!std::isfinite(loc.x) || !std::isfinite(loc.y)) continue;
    if (!clean.Contains(loc)) continue;
    pairs.emplace_back(
        cell::CellId::FromPoint(options.projection.ToUnit(loc)).id(),
        static_cast<uint32_t>(r));
  }
  std::sort(pairs.begin(), pairs.end());

  ReferenceExtract out;
  out.columns.resize(raw.num_columns());
  for (const auto& [key, row] : pairs) {
    out.keys.push_back(key);
    out.xs.push_back(raw.xs()[row]);
    out.ys.push_back(raw.ys()[row]);
    for (size_t c = 0; c < raw.num_columns(); ++c) {
      out.columns[c].push_back(raw.column(c)[row]);
    }
    if (options.collect_cells_level >= 0) {
      const uint64_t cell =
          cell::CellId(key).Parent(options.collect_cells_level).id();
      if (out.cells.empty() || out.cells.back() != cell) {
        out.cells.push_back(cell);
      }
    }
  }
  return out;
}

template <typename T>
bool BitwiseEqual(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// `base` with dirty rows mixed in: every 7th row gets a NaN or infinite
/// coordinate, every 11th lies outside `bounds`, every 3rd repeats the
/// exact location of an earlier row (with its own payload), so equal keys
/// far apart in the input exercise the row tie-break, and some others lie
/// a few leaf cells from an earlier row.
PointTable WithDirtyRows(const PointTable& base, const geo::Rect& bounds) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::nan("");
  PointTable t(base.schema());
  std::vector<double> values(base.num_columns());
  for (size_t r = 0; r < base.num_rows(); ++r) {
    for (size_t c = 0; c < base.num_columns(); ++c) {
      values[c] = base.Value(r, c);
    }
    geo::Point loc = base.Location(r);
    if (r % 7 == 1) {
      const double bad[] = {nan, kInf, -kInf};
      if (r % 2 == 0) {
        loc.x = bad[r % 3];
      } else {
        loc.y = bad[r % 3];
      }
    } else if (r % 11 == 2) {
      loc.x = bounds.max.x + 0.5 * bounds.Width();
    } else if (r % 3 == 0 && r > 0) {
      loc = base.Location(r / 2);
    } else if (r % 5 == 0 && r > 0) {
      // A few leaf cells away from an earlier row: keys that differ only
      // in their lowest byte.
      const double step = 3e-7 * static_cast<double>((r / 5) % 5) - 6e-7;
      loc = base.Location(r / 2);
      loc.x += step;
      loc.y -= step;
    }
    t.AddRow(loc, values);
  }
  return t;
}

TEST(ExtractTest, MatchesComparisonSortBitwise) {
  struct Source {
    const char* name;
    std::function<PointTable(size_t)> generate;
    geo::Rect bounds;
    ExtractOptions options;
  };
  ExtractOptions taxi;
  taxi.clean_bounds = workload::NycBounds();
  ExtractOptions tweets;  // whole-earth projection, clean to the US
  tweets.clean_bounds = workload::UsBounds();
  ExtractOptions osm;  // projected onto its domain, cleaned to the domain
  osm.projection = geo::Projection(workload::AmericasBounds());
  const std::vector<Source> sources = {
      {"taxi", [](size_t n) { return workload::GenTaxi(n); },
       workload::NycBounds(), taxi},
      {"tweets", [](size_t n) { return workload::GenTweets(n); },
       workload::UsBounds(), tweets},
      {"osm", [](size_t n) { return workload::GenOsm(n); },
       workload::AmericasBounds(), osm},
  };
  for (const Source& source : sources) {
    for (const size_t n : {size_t{0}, size_t{300}, size_t{50000}}) {
      const PointTable raw = WithDirtyRows(source.generate(n), source.bounds);
      for (const int level : {11, 17}) {
        const std::string what = std::string(source.name) + " n=" +
                                 std::to_string(n) +
                                 " level=" + std::to_string(level);
        ExtractOptions options = source.options;
        options.collect_cells_level = level;
        const SortedDataset got = SortedDataset::Extract(raw, options);
        const ReferenceExtract want = ExtractByComparisonSort(raw, options);
        if (n > 0) {
          ASSERT_LT(want.keys.size(), raw.num_rows()) << what;
          ASSERT_GT(want.keys.size(), raw.num_rows() / 2) << what;
          ASSERT_NE(std::adjacent_find(want.keys.begin(), want.keys.end()),
                    want.keys.end())
              << what << ": no equal keys";
        }
        ASSERT_TRUE(BitwiseEqual(got.keys(), want.keys)) << what;
        ASSERT_TRUE(BitwiseEqual(got.xs(), want.xs)) << what;
        ASSERT_TRUE(BitwiseEqual(got.ys(), want.ys)) << what;
        ASSERT_EQ(got.num_columns(), raw.num_columns()) << what;
        for (size_t c = 0; c < raw.num_columns(); ++c) {
          ASSERT_TRUE(BitwiseEqual(got.column(c), want.columns[c]))
              << what << " column " << c;
        }
        ASSERT_TRUE(BitwiseEqual(got.collected_cells(), want.cells)) << what;
      }
    }
  }
}

TEST(SortedDatasetTest, BoundsSearch) {
  PointTable t(TwoColSchema());
  for (int i = 0; i < 300; ++i) {
    t.AddRow({-74.0 + 0.001 * i, 40.6 + 0.0005 * i}, {0, 0});
  }
  const SortedDataset data = SortedDataset::Extract(t, ExtractOptions{});
  // LowerBound/UpperBound agree with linear scans.
  for (size_t i = 0; i < data.num_rows(); i += 37) {
    const uint64_t k = data.keys()[i];
    size_t lo = 0;
    while (lo < data.num_rows() && data.keys()[lo] < k) ++lo;
    size_t hi = lo;
    while (hi < data.num_rows() && data.keys()[hi] == k) ++hi;
    ASSERT_EQ(data.LowerBound(k), lo);
    ASSERT_EQ(data.UpperBound(k), hi);
  }
}

TEST(SortedDatasetTest, EqualRangeForCell) {
  std::mt19937_64 rng(9);
  std::uniform_real_distribution<double> lon(-74.2, -73.7);
  std::uniform_real_distribution<double> lat(40.5, 40.9);
  PointTable t(TwoColSchema());
  for (int i = 0; i < 3000; ++i) {
    t.AddRow({lon(rng), lat(rng)}, {0, 0});
  }
  const SortedDataset data = SortedDataset::Extract(t, ExtractOptions{});
  for (int trial = 0; trial < 50; ++trial) {
    const size_t row = rng() % data.num_rows();
    const cell::CellId cell =
        cell::CellId(data.keys()[row]).Parent(10 + trial % 15);
    const auto [first, last] = data.EqualRangeForCell(cell);
    ASSERT_LE(first, row);
    ASSERT_GT(last, row);
    // Every row in [first, last) is inside the cell, neighbours are not.
    for (size_t r = first; r < last; ++r) {
      ASSERT_TRUE(cell.Contains(cell::CellId(data.keys()[r])));
    }
    if (first > 0) {
      ASSERT_FALSE(cell.Contains(cell::CellId(data.keys()[first - 1])));
    }
    if (last < data.num_rows()) {
      ASSERT_FALSE(cell.Contains(cell::CellId(data.keys()[last])));
    }
  }
}

TEST(SortedDatasetTest, MemoryAccounting) {
  const PointTable t = SmallTable();
  ExtractOptions options;
  options.clean_bounds = geo::Rect{{0, 0}, {40, 40}};
  const SortedDataset data = SortedDataset::Extract(t, options);
  EXPECT_EQ(data.PayloadBytes(),
            data.num_rows() * (2 + 2) * sizeof(double));
  EXPECT_EQ(data.MemoryBytes(),
            data.PayloadBytes() + data.num_rows() * sizeof(uint64_t));
}

}  // namespace
}  // namespace geoblocks::storage
