#include "grid/quantizer.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "common/stats.h"

namespace hido {

namespace {

// Partially orders values[lo, hi) so that values[k] holds the k-th smallest
// value for every k in the ascending, distinct ranks [first, last), all in
// [lo, hi): a recursive nth_element multi-select, O(n log #ranks).
void SelectRanks(std::vector<double>& values, size_t lo, size_t hi,
                 const size_t* first, const size_t* last) {
  if (first == last) return;
  const size_t* mid = first + (last - first) / 2;
  std::nth_element(values.begin() + lo, values.begin() + *mid,
                   values.begin() + hi);
  SelectRanks(values, lo, *mid, first, mid);
  SelectRanks(values, *mid + 1, hi, mid + 1, last);
}

}  // namespace

Quantizer Quantizer::Fit(const Dataset& data, const Options& options) {
  HIDO_CHECK_MSG(options.num_ranges >= 2, "phi must be >= 2 (got %zu)",
                 options.num_ranges);
  HIDO_CHECK(data.num_rows() >= 1);

  Quantizer q;
  q.num_ranges_ = options.num_ranges;
  q.mode_ = options.mode;
  q.cuts_.resize(data.num_cols());
  q.col_min_.resize(data.num_cols());
  q.col_max_.resize(data.num_cols());

  const size_t phi = options.num_ranges;
  std::vector<double> present;  // one column's scratch, reused
  std::vector<size_t> ranks;
  for (size_t c = 0; c < data.num_cols(); ++c) {
    present.clear();
    for (size_t r = 0; r < data.num_rows(); ++r) {
      if (!data.IsMissing(r, c)) {
        present.push_back(data.Get(r, c));
      }
    }
    HIDO_CHECK_MSG(!present.empty(), "column %zu has no present values", c);
    const auto minmax = std::minmax_element(present.begin(), present.end());
    q.col_min_[c] = *minmax.first;
    q.col_max_[c] = *minmax.second;

    std::vector<double>& cuts = q.cuts_[c];
    cuts.reserve(phi - 1);
    if (options.mode == BinningMode::kEquiDepth) {
      // QuantileSorted(q) reads only rank floor(q (n-1)) and its successor,
      // so putting those ranks in place yields the cuts a full sort gives.
      const size_t n = present.size();
      ranks.clear();
      for (size_t i = 1; i < phi; ++i) {
        ranks.push_back(static_cast<size_t>(static_cast<double>(i) /
                                            static_cast<double>(phi) *
                                            static_cast<double>(n - 1)));
      }
      // Levels ascend, so the ranks are sorted; drop repeats.
      ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
      SelectRanks(present, 0, n, ranks.data(), ranks.data() + ranks.size());
      // A successor is the least value between its rank and the next one.
      for (size_t j = 0; j < ranks.size(); ++j) {
        const auto first = present.begin() + ranks[j] + 1;
        const auto last =
            present.begin() + (j + 1 < ranks.size() ? ranks[j + 1] : n);
        if (first < last) std::iter_swap(first, std::min_element(first, last));
      }
      for (size_t i = 1; i < phi; ++i) {
        cuts.push_back(QuantileSorted(
            present, static_cast<double>(i) / static_cast<double>(phi)));
      }
    } else {
      const double lo = q.col_min_[c];
      const double span = q.col_max_[c] - q.col_min_[c];
      for (size_t i = 1; i < phi; ++i) {
        cuts.push_back(lo + span * static_cast<double>(i) /
                                static_cast<double>(phi));
      }
    }
    // Breakpoints are non-decreasing by construction; enforce exactly so
    // the cell count of CellIn is well-defined under floating-point noise.
    for (size_t i = 1; i < cuts.size(); ++i) {
      if (cuts[i] < cuts[i - 1]) cuts[i] = cuts[i - 1];
    }
  }
  return q;
}

Quantizer Quantizer::FromCuts(const Options& options,
                              std::vector<std::vector<double>> cuts,
                              std::vector<double> col_min,
                              std::vector<double> col_max) {
  HIDO_CHECK(options.num_ranges >= 2);
  HIDO_CHECK(cuts.size() == col_min.size() &&
             cuts.size() == col_max.size());
  for (const std::vector<double>& column_cuts : cuts) {
    HIDO_CHECK_MSG(column_cuts.size() == options.num_ranges - 1,
                   "expected %zu cuts per column, got %zu",
                   options.num_ranges - 1, column_cuts.size());
    for (size_t i = 1; i < column_cuts.size(); ++i) {
      HIDO_CHECK_MSG(column_cuts[i - 1] <= column_cuts[i],
                     "cuts must be non-decreasing");
    }
  }
  Quantizer q;
  q.num_ranges_ = options.num_ranges;
  q.mode_ = options.mode;
  q.cuts_ = std::move(cuts);
  q.col_min_ = std::move(col_min);
  q.col_max_ = std::move(col_max);
  return q;
}

uint32_t Quantizer::CellOf(size_t col, double value) const {
  HIDO_CHECK(col < cuts_.size());
  return CellIn(cuts_[col], value);
}

std::pair<double, double> Quantizer::CellBounds(size_t col,
                                                uint32_t cell) const {
  HIDO_CHECK(col < cuts_.size());
  HIDO_CHECK(cell < num_ranges_);
  const std::vector<double>& cuts = cuts_[col];
  const double lo = (cell == 0) ? col_min_[col] : cuts[cell - 1];
  const double hi =
      (cell + 1 == num_ranges_) ? col_max_[col] : cuts[cell];
  return {lo, hi};
}

const std::vector<double>& Quantizer::Cuts(size_t col) const {
  HIDO_CHECK(col < cuts_.size());
  return cuts_[col];
}

}  // namespace hido
