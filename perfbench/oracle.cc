#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace hido {
namespace perfbench {

namespace {

// Equation 1 with the uniform expectation f = 1/phi, written out here so
// the check shares no code with grid/sparsity.cc.
double SparsityOf(size_t count, size_t num_points, size_t phi, size_t k) {
  const double n = static_cast<double>(num_points);
  const double fk = std::pow(1.0 / static_cast<double>(phi),
                             static_cast<double>(k));
  return (static_cast<double>(count) - n * fk) / std::sqrt(n * fk * (1.0 - fk));
}

}  // namespace

CubeCheck CheckCubes(const GridModel& grid,
                     const std::vector<ScoredProjection>& cubes) {
  CubeCheck check;
  double neg_sum = 0.0;
  for (const ScoredProjection& cube : cubes) {
    ++check.checked;
    const std::vector<DimRange> conditions = cube.projection.Conditions();
    size_t count = 0;
    for (size_t row = 0; row < grid.num_points(); ++row) {
      bool inside = true;
      for (const DimRange& c : conditions) {
        if (grid.Cell(row, c.dim) != c.cell) {
          inside = false;
          break;
        }
      }
      count += inside ? 1 : 0;
    }
    const double expected =
        SparsityOf(count, grid.num_points(), grid.phi(), conditions.size());
    const bool sparsity_ok =
        std::isfinite(cube.sparsity) &&
        std::fabs(cube.sparsity - expected) <=
            1e-9 * std::max(1.0, std::fabs(expected));
    if (conditions.empty() || count == 0 || count != cube.count ||
        !sparsity_ok) {
      ++check.failed;
    }
    neg_sum -= cube.sparsity;
  }
  if (check.checked > 0) {
    check.mean_neg_sparsity = neg_sum / static_cast<double>(check.checked);
  }
  return check;
}

double PlantedRecall(const std::vector<size_t>& ranked_rows,
                     const std::vector<size_t>& truth) {
  if (truth.empty()) return 0.0;
  const std::unordered_set<size_t> planted(truth.begin(), truth.end());
  size_t found = 0;
  for (size_t i = 0; i < ranked_rows.size() && i < truth.size(); ++i) {
    found += planted.count(ranked_rows[i]);
  }
  return static_cast<double>(found) / static_cast<double>(truth.size());
}

}  // namespace perfbench
}  // namespace hido
