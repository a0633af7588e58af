#include "grid/quantizer.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stats.h"
#include "data/generators/synthetic.h"

namespace hido {
namespace {

Dataset SingleColumn(const std::vector<double>& values) {
  Dataset ds(1);
  for (double v : values) ds.AppendRow({v});
  return ds;
}

TEST(QuantizerTest, EquiDepthBalancedOnContinuousData) {
  const Dataset ds = GenerateUniform(1000, 3, 17);
  Quantizer::Options opts;
  opts.num_ranges = 10;
  const Quantizer q = Quantizer::Fit(ds, opts);
  EXPECT_EQ(q.num_ranges(), 10u);
  EXPECT_EQ(q.num_cols(), 3u);

  for (size_t c = 0; c < 3; ++c) {
    std::vector<size_t> counts(10, 0);
    for (size_t r = 0; r < ds.num_rows(); ++r) {
      counts[q.CellOf(c, ds.Get(r, c))] += 1;
    }
    for (size_t cell = 0; cell < 10; ++cell) {
      // Equi-depth: each range holds ~N/phi = 100 points.
      EXPECT_NEAR(static_cast<double>(counts[cell]), 100.0, 3.0)
          << "col " << c << " cell " << cell;
    }
  }
}

TEST(QuantizerTest, EquiWidthBoundaries) {
  const Dataset ds = SingleColumn({0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0,
                                   8.0, 10.0});
  Quantizer::Options opts;
  opts.num_ranges = 5;
  opts.mode = BinningMode::kEquiWidth;
  const Quantizer q = Quantizer::Fit(ds, opts);
  // Width = 2: cells [0,2), [2,4), [4,6), [6,8), [8,10].
  EXPECT_EQ(q.CellOf(0, 0.0), 0u);
  EXPECT_EQ(q.CellOf(0, 1.9), 0u);
  EXPECT_EQ(q.CellOf(0, 2.0), 1u);
  EXPECT_EQ(q.CellOf(0, 9.9), 4u);
  EXPECT_EQ(q.CellOf(0, 10.0), 4u);
}

TEST(QuantizerTest, OutOfRangeValuesClampToEndCells) {
  const Dataset ds = SingleColumn({1.0, 2.0, 3.0, 4.0});
  Quantizer::Options opts;
  opts.num_ranges = 2;
  const Quantizer q = Quantizer::Fit(ds, opts);
  EXPECT_EQ(q.CellOf(0, -100.0), 0u);
  EXPECT_EQ(q.CellOf(0, 100.0), 1u);
}

TEST(QuantizerTest, CellOfIsMonotoneInValue) {
  const Dataset ds = GenerateUniform(500, 1, 23);
  Quantizer::Options opts;
  opts.num_ranges = 7;
  const Quantizer q = Quantizer::Fit(ds, opts);
  uint32_t prev = 0;
  for (double v = -0.5; v <= 1.5; v += 0.001) {
    const uint32_t cell = q.CellOf(0, v);
    EXPECT_GE(cell, prev);
    EXPECT_LT(cell, 7u);
    prev = cell;
  }
}

TEST(QuantizerTest, ConstantColumnCollapsesToOneCell) {
  const Dataset ds = SingleColumn({5.0, 5.0, 5.0, 5.0});
  Quantizer::Options opts;
  opts.num_ranges = 4;
  const Quantizer q = Quantizer::Fit(ds, opts);
  for (double v : {4.0, 5.0, 6.0}) {
    EXPECT_LT(q.CellOf(0, v), 4u);  // well-defined, no crash
  }
  // All data lands in one cell.
  EXPECT_EQ(q.CellOf(0, 5.0), q.CellOf(0, 5.0));
}

TEST(QuantizerTest, MissingValuesIgnoredDuringFit) {
  Dataset ds(1);
  ds.AppendRow({1.0});
  ds.AppendRow({std::numeric_limits<double>::quiet_NaN()});
  ds.AppendRow({2.0});
  ds.AppendRow({3.0});
  ds.AppendRow({4.0});
  Quantizer::Options opts;
  opts.num_ranges = 2;
  const Quantizer q = Quantizer::Fit(ds, opts);
  EXPECT_EQ(q.CellOf(0, 1.0), 0u);
  EXPECT_EQ(q.CellOf(0, 4.0), 1u);
}

TEST(QuantizerTest, CellBoundsCoverColumnRange) {
  const Dataset ds = GenerateUniform(300, 1, 31);
  Quantizer::Options opts;
  opts.num_ranges = 5;
  const Quantizer q = Quantizer::Fit(ds, opts);
  double prev_hi = -1.0;
  for (uint32_t cell = 0; cell < 5; ++cell) {
    const auto [lo, hi] = q.CellBounds(0, cell);
    EXPECT_LE(lo, hi);
    if (cell > 0) {
      EXPECT_EQ(lo, prev_hi);  // contiguous
    }
    prev_hi = hi;
  }
}

TEST(QuantizerTest, CutsAreNonDecreasing) {
  const Dataset ds = GenerateUniform(100, 2, 37);
  Quantizer::Options opts;
  opts.num_ranges = 10;
  const Quantizer q = Quantizer::Fit(ds, opts);
  for (size_t c = 0; c < 2; ++c) {
    const std::vector<double>& cuts = q.Cuts(c);
    ASSERT_EQ(cuts.size(), 9u);
    for (size_t i = 1; i < cuts.size(); ++i) {
      EXPECT_LE(cuts[i - 1], cuts[i]);
    }
  }
}

TEST(QuantizerTest, FromCutsReconstructsCellAssignment) {
  // A quantizer rebuilt from its own fitted state (the model-loading path)
  // must agree with the original on every value.
  const Dataset ds = GenerateUniform(300, 3, 53);
  Quantizer::Options opts;
  opts.num_ranges = 7;
  const Quantizer fitted = Quantizer::Fit(ds, opts);

  std::vector<std::vector<double>> cuts;
  std::vector<double> mins;
  std::vector<double> maxs;
  for (size_t c = 0; c < 3; ++c) {
    cuts.push_back(fitted.Cuts(c));
    mins.push_back(fitted.CellBounds(c, 0).first);
    maxs.push_back(fitted.CellBounds(c, 6).second);
  }
  const Quantizer rebuilt =
      Quantizer::FromCuts(opts, cuts, mins, maxs);
  for (size_t c = 0; c < 3; ++c) {
    for (double v = -0.2; v <= 1.2; v += 0.013) {
      EXPECT_EQ(rebuilt.CellOf(c, v), fitted.CellOf(c, v))
          << "col " << c << " v " << v;
    }
    EXPECT_EQ(rebuilt.CellBounds(c, 3), fitted.CellBounds(c, 3));
  }
}

TEST(QuantizerDeathTest, FromCutsValidatesShape) {
  Quantizer::Options opts;
  opts.num_ranges = 4;
  // Wrong cut count per column.
  EXPECT_DEATH(
      Quantizer::FromCuts(opts, {{0.5}}, {0.0}, {1.0}), "cuts per column");
  // Unsorted cuts.
  EXPECT_DEATH(Quantizer::FromCuts(opts, {{0.7, 0.5, 0.9}}, {0.0}, {1.0}),
               "non-decreasing");
  // Mismatched bounds vectors.
  EXPECT_DEATH(
      Quantizer::FromCuts(opts, {{0.2, 0.5, 0.7}}, {0.0, 0.0}, {1.0}),
      "");
}

TEST(QuantizerDeathTest, PhiOneAborts) {
  const Dataset ds = SingleColumn({1.0});
  Quantizer::Options opts;
  opts.num_ranges = 1;
  EXPECT_DEATH(Quantizer::Fit(ds, opts), "phi");
}

TEST(QuantizerDeathTest, AllMissingColumnAborts) {
  Dataset ds(1);
  ds.AppendRow({std::numeric_limits<double>::quiet_NaN()});
  Quantizer::Options opts;
  opts.num_ranges = 2;
  EXPECT_DEATH(Quantizer::Fit(ds, opts), "present");
}

// Property sweep: equi-depth balance holds across phi values.
class EquiDepthBalance : public ::testing::TestWithParam<size_t> {};

TEST_P(EquiDepthBalance, RangesHoldRoughlyEqualCounts) {
  const size_t phi = GetParam();
  const size_t n = 997;  // deliberately not divisible by phi
  const Dataset ds = GenerateUniform(n, 1, 41 + phi);
  Quantizer::Options opts;
  opts.num_ranges = phi;
  const Quantizer q = Quantizer::Fit(ds, opts);
  std::vector<size_t> counts(phi, 0);
  for (size_t r = 0; r < n; ++r) {
    counts[q.CellOf(0, ds.Get(r, 0))] += 1;
  }
  const double expected = static_cast<double>(n) / static_cast<double>(phi);
  for (size_t cell = 0; cell < phi; ++cell) {
    EXPECT_NEAR(static_cast<double>(counts[cell]), expected,
                expected * 0.05 + 2.0);
  }
}

INSTANTIATE_TEST_SUITE_P(PhiSweep, EquiDepthBalance,
                         ::testing::Values(2, 3, 5, 10, 20));

// --- Oracle: the sort-based fit ---------------------------------------------

// Fitted state of one column.
struct ColumnFit {
  std::vector<double> cuts;
  double min = 0.0;
  double max = 0.0;
};

// The original Quantizer::Fit, kept verbatim as the reference: sort every
// column's present values, read the cuts with QuantileSorted (equi-depth)
// or space them evenly between min and max (equi-width), then clamp them
// non-decreasing. The library selects only the ranks QuantileSorted reads.
std::vector<ColumnFit> ReferenceFit(const Dataset& data,
                                    const Quantizer::Options& options) {
  const size_t phi = options.num_ranges;
  std::vector<ColumnFit> fits(data.num_cols());
  for (size_t c = 0; c < data.num_cols(); ++c) {
    std::vector<double> present;
    for (size_t r = 0; r < data.num_rows(); ++r) {
      if (!data.IsMissing(r, c)) present.push_back(data.Get(r, c));
    }
    std::sort(present.begin(), present.end());
    ColumnFit& fit = fits[c];
    fit.min = present.front();
    fit.max = present.back();
    if (options.mode == BinningMode::kEquiDepth) {
      for (size_t i = 1; i < phi; ++i) {
        fit.cuts.push_back(QuantileSorted(
            present, static_cast<double>(i) / static_cast<double>(phi)));
      }
    } else {
      const double span = fit.max - fit.min;
      for (size_t i = 1; i < phi; ++i) {
        fit.cuts.push_back(fit.min + span * static_cast<double>(i) /
                                         static_cast<double>(phi));
      }
    }
    for (size_t i = 1; i < fit.cuts.size(); ++i) {
      if (fit.cuts[i] < fit.cuts[i - 1]) fit.cuts[i] = fit.cuts[i - 1];
    }
  }
  return fits;
}

// The original cell rule: the number of cuts <= value via upper_bound.
uint32_t ReferenceCell(const std::vector<double>& cuts, double value) {
  return static_cast<uint32_t>(
      std::upper_bound(cuts.begin(), cuts.end(), value) - cuts.begin());
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double FittedMin(const Quantizer& q, size_t col) {
  return q.CellBounds(col, 0).first;
}

double FittedMax(const Quantizer& q, size_t col) {
  return q.CellBounds(col, static_cast<uint32_t>(q.num_ranges() - 1)).second;
}

// Column kinds for the sweep: continuous, heavy ties (3 distinct values),
// constant, and continuous with ~20% missing cells (never all missing).
enum class ColumnKind { kUniform, kHeavyTies, kConstant, kMissing };

Dataset MakeColumns(size_t n, ColumnKind kind, uint64_t seed) {
  Rng rng(seed);
  Dataset ds(2);
  for (size_t r = 0; r < n; ++r) {
    std::vector<double> row(2);
    for (double& v : row) {
      switch (kind) {
        case ColumnKind::kUniform:
        case ColumnKind::kMissing:
          v = rng.UniformDouble(-3.0, 5.0);
          break;
        case ColumnKind::kHeavyTies:
          v = std::vector<double>{-1.5, 0.25, 3.0}[rng.UniformIndex(3)];
          break;
        case ColumnKind::kConstant:
          v = 7.125;
          break;
      }
    }
    ds.AppendRow(row);
  }
  if (kind == ColumnKind::kMissing) {
    for (size_t r = 1; r < n; ++r) {
      for (size_t c = 0; c < 2; ++c) {
        if (rng.Bernoulli(0.2)) ds.SetMissing(r, c);
      }
    }
  }
  return ds;
}

using OracleCase = std::tuple<size_t /*phi*/, int /*n selector*/, ColumnKind,
                              BinningMode>;

class QuantizerOracle : public ::testing::TestWithParam<OracleCase> {};

// Cuts, min and max are bitwise those of the sort-based reference, and so
// is every cell of the data.
TEST_P(QuantizerOracle, FitIsBitwiseTheSortBasedFit) {
  const auto [phi, n_selector, kind, mode] = GetParam();
  // n in {1, 2, phi-1, phi, phi+1, 997}.
  const size_t sizes[] = {1, 2, phi - 1, phi, phi + 1, 997};
  const size_t n = sizes[n_selector];
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const Dataset ds = MakeColumns(n, kind, seed * 131 + phi);
    Quantizer::Options opts;
    opts.num_ranges = phi;
    opts.mode = mode;
    const Quantizer q = Quantizer::Fit(ds, opts);
    const std::vector<ColumnFit> ref = ReferenceFit(ds, opts);
    for (size_t c = 0; c < ds.num_cols(); ++c) {
      const std::vector<double>& cuts = q.Cuts(c);
      ASSERT_EQ(cuts.size(), ref[c].cuts.size());
      for (size_t i = 0; i < cuts.size(); ++i) {
        EXPECT_EQ(Bits(cuts[i]), Bits(ref[c].cuts[i]))
            << "col " << c << " cut " << i << " n " << n << " seed " << seed;
      }
      EXPECT_EQ(Bits(FittedMin(q, c)), Bits(ref[c].min));
      EXPECT_EQ(Bits(FittedMax(q, c)), Bits(ref[c].max));
      for (size_t r = 0; r < n; ++r) {
        if (ds.IsMissing(r, c)) continue;
        EXPECT_EQ(q.CellOf(c, ds.Get(r, c)),
                  ReferenceCell(ref[c].cuts, ds.Get(r, c)));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QuantizerOracle,
    ::testing::Combine(::testing::Values(2, 3, 10, 17),
                       ::testing::Range(0, 6),
                       ::testing::Values(ColumnKind::kUniform,
                                         ColumnKind::kHeavyTies,
                                         ColumnKind::kConstant,
                                         ColumnKind::kMissing),
                       ::testing::Values(BinningMode::kEquiDepth,
                                         BinningMode::kEquiWidth)));

// -0.0 and +0.0 compare equal, so std::sort leaves their order unspecified
// and even the sort-based fit could return either zero at a selected rank
// (or as min/max). Both fits agree under ==, which is all the cell rule
// reads, so cells stay identical; the sign bit of a zero cut is not pinned.
TEST(QuantizerOracleTest, SignedZerosGiveEqualCutsAndIdenticalCells) {
  for (const BinningMode mode :
       {BinningMode::kEquiDepth, BinningMode::kEquiWidth}) {
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      Rng rng(seed);
      Dataset ds(1);
      for (size_t r = 0; r < 101; ++r) {
        const double pick[] = {-0.0, 0.0, -1.0, 2.0};
        ds.AppendRow({pick[rng.UniformIndex(seed % 2 == 0 ? 2 : 4)]});
      }
      Quantizer::Options opts;
      opts.num_ranges = 3 + seed % 8;
      opts.mode = mode;
      const Quantizer q = Quantizer::Fit(ds, opts);
      const ColumnFit ref = ReferenceFit(ds, opts)[0];
      ASSERT_EQ(q.Cuts(0).size(), ref.cuts.size());
      for (size_t i = 0; i < ref.cuts.size(); ++i) {
        EXPECT_EQ(q.Cuts(0)[i], ref.cuts[i]) << "seed " << seed;
      }
      EXPECT_EQ(FittedMin(q, 0), ref.min);
      EXPECT_EQ(FittedMax(q, 0), ref.max);
      for (const double v : {-0.0, 0.0, -1.0, 2.0, -0.5, 1.0}) {
        EXPECT_EQ(q.CellOf(0, v), ReferenceCell(ref.cuts, v));
      }
    }
  }
}

// CellIn keeps upper_bound semantics at the edges: ties go up, values past
// either end clamp, and NaN lands in the last cell as upper_bound puts it.
TEST(QuantizerTest, CellInMatchesUpperBound) {
  const std::vector<double> cuts = {-1.0, 0.0, 0.0, 2.5};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double v : {-2.0, -1.0, -0.5, -0.0, 0.0, 1.0, 2.5, 9.0, nan}) {
    EXPECT_EQ(Quantizer::CellIn(cuts, v), ReferenceCell(cuts, v)) << v;
  }
  EXPECT_EQ(Quantizer::CellIn({}, 1.0), 0u);
}

// --- Golden cut bytes --------------------------------------------------------

// A seeded dataset of values drawn from a 3-value set, some cells missing.
Dataset HeavyTiesDataset() {
  Rng rng(77);
  Dataset ds(3);
  for (size_t r = 0; r < 997; ++r) {
    std::vector<double> row(3);
    for (double& v : row) {
      v = std::vector<double>{-2.0, 0.1, 3.7}[rng.UniformIndex(3)];
    }
    ds.AppendRow(row);
  }
  for (size_t r = 0; r < ds.num_rows(); r += 13) ds.SetMissing(r, r % 3);
  return ds;
}

// Every fitted number of `q` as %.17g text (round-trips every double).
std::string DescribeFit(const Quantizer& q) {
  std::string out;
  char buf[128];
  for (size_t c = 0; c < q.num_cols(); ++c) {
    std::snprintf(buf, sizeof(buf), "col %zu min %.17g max %.17g cuts", c,
                  FittedMin(q, c), FittedMax(q, c));
    out += buf;
    for (const double cut : q.Cuts(c)) {
      std::snprintf(buf, sizeof(buf), " %.17g", cut);
      out += buf;
    }
    out += "\n";
  }
  return out;
}

std::string GoldenText() {
  const struct {
    const char* name;
    Dataset data;
  } datasets[] = {{"uniform-1500x4-seed2024", GenerateUniform(1500, 4, 2024)},
                  {"heavy-ties-997x3-seed77", HeavyTiesDataset()}};
  std::string out;
  for (const auto& [name, data] : datasets) {
    for (const BinningMode mode :
         {BinningMode::kEquiDepth, BinningMode::kEquiWidth}) {
      for (const size_t phi : {3, 10}) {
        Quantizer::Options opts;
        opts.num_ranges = phi;
        opts.mode = mode;
        out += std::string(name) +
               (mode == BinningMode::kEquiDepth ? " equi-depth"
                                                : " equi-width") +
               " phi " + std::to_string(phi) + "\n";
        out += DescribeFit(Quantizer::Fit(data, opts));
      }
    }
  }
  return out;
}

// The golden file was written by the sort-based fit this library replaced;
// any drift in a cut, a min or a max (down to the last bit) fails here.
TEST(QuantizerGoldenTest, CutsMatchGoldenBytes) {
  std::ifstream in(HIDO_QUANTIZER_GOLDEN, std::ios::binary);
  ASSERT_TRUE(in) << "cannot open " << HIDO_QUANTIZER_GOLDEN;
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(GoldenText(), golden.str());
}

}  // namespace
}  // namespace hido
