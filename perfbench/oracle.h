#ifndef HIDO_PERFBENCH_ORACLE_H_
#define HIDO_PERFBENCH_ORACLE_H_

// Independent checks of what Detect reports. Cube counts are recounted by
// a plain scan of the grid's quantized cells (no CubeCounter, kernel,
// container or cache), and S(D) is recomputed from Equation 1 with
// f = 1/phi, so a bug in any counting layer shows as a failed operation.

#include <cstdint>
#include <vector>

#include "core/objective.h"
#include "grid/grid_model.h"

namespace hido {
namespace perfbench {

/// Result of checking a list of reported cubes.
struct CubeCheck {
  uint64_t checked = 0;  ///< cubes examined
  uint64_t failed = 0;   ///< count or S(D) mismatch, empty, or non-finite
  double mean_neg_sparsity = 0.0;  ///< mean of -S(D) over the cubes
};

/// Recounts every cube against `grid` and recomputes its S(D).
CubeCheck CheckCubes(const GridModel& grid,
                     const std::vector<ScoredProjection>& cubes);

/// Share of `truth` rows found among the first truth.size() ranked rows.
double PlantedRecall(const std::vector<size_t>& ranked_rows,
                     const std::vector<size_t>& truth);

}  // namespace perfbench
}  // namespace hido

#endif  // HIDO_PERFBENCH_ORACLE_H_
