#include "grid/grid_model.h"

#include <string>
#include <utility>

#include "common/bitset_kernels.h"
#include "common/macros.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hido {

GridModel GridModel::Build(const Dataset& data, const Options& options) {
  Result<GridModel> built = Build(data, options, /*stop=*/nullptr);
  return std::move(built).value();  // cannot fail without a token
}

Result<GridModel> GridModel::Build(const Dataset& data,
                                   const Options& options,
                                   const StopToken* stop) {
  // Indexing cost is rows * dims; poll every this many cells so a cancel
  // lands promptly even on one very long column.
  constexpr size_t kPollStride = 4096;

  const obs::TraceSpan span("grid_build");

  if (stop != nullptr && stop->ShouldStop()) {
    return StopStatus(*stop, "grid build");
  }

  Quantizer::Options qopts;
  qopts.num_ranges = options.phi;
  qopts.mode = options.mode;

  GridModel model;
  model.num_points_ = data.num_rows();
  model.quantizer_ = Quantizer::Fit(data, qopts);

  const size_t n = data.num_rows();
  const size_t d = data.num_cols();
  const size_t phi = options.phi;
  model.array_threshold_ = options.array_threshold == kAutoArrayThreshold
                               ? n / 32
                               : options.array_threshold;
  model.cells_.assign(d, std::vector<uint32_t>(n));
  model.containers_.resize(d * phi);

  size_t array_containers = 0;
  for (size_t dim = 0; dim < d; ++dim) {
    if (stop != nullptr && stop->ShouldStop()) {
      return StopStatus(*stop, "grid build");
    }
    // One pass assigns the cells and counts each range, so the id lists
    // are allocated at their exact sizes and never grow.
    const std::vector<double>& cuts = model.quantizer_.Cuts(dim);
    const std::vector<double>& values = data.Column(dim);
    std::vector<uint32_t>& cells = model.cells_[dim];
    std::vector<size_t> counts(phi, 0);
    for (size_t row = 0; row < n; ++row) {
      if (stop != nullptr && row % kPollStride == kPollStride - 1 &&
          stop->ShouldStop()) {
        return StopStatus(*stop, "grid build");
      }
      cells[row] = data.IsMissing(row, dim)
                       ? kMissingCell
                       : Quantizer::CellIn(cuts, values[row]);
      if (cells[row] != kMissingCell) ++counts[cells[row]];
    }
    std::vector<std::vector<uint32_t>> ids(phi);
    for (size_t cell = 0; cell < phi; ++cell) ids[cell].reserve(counts[cell]);
    for (uint32_t row = 0; row < n; ++row) {
      if (cells[row] != kMissingCell) ids[cells[row]].push_back(row);
    }
    // Rows were scanned ascending, so each range's ids arrive sorted and
    // the container choice is purely its cardinality vs. the threshold.
    for (uint32_t cell = 0; cell < phi; ++cell) {
      PostingContainer& container = model.containers_[dim * phi + cell];
      container = PostingContainer::FromIds(std::move(ids[cell]), n,
                                            model.array_threshold_);
      if (container.kind() == PostingContainer::Kind::kArray) {
        ++array_containers;
      }
    }
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("grid.builds").Add(1);
  registry.GetCounter("grid.points_indexed").Add(data.num_rows());
  registry.GetCounter("grid.cells_indexed").Add(data.num_rows() * d);
  registry.GetCounter("grid.containers.array").Add(array_containers);
  registry.GetCounter("grid.containers.bitmap")
      .Add(d * phi - array_containers);
  // Which counting kernel serves the bitmap legs of this grid's counts.
  // Published here (not in src/common, which cannot depend on obs) so the
  // gauge appears exactly when a counting workload exists.
  registry
      .GetGauge(std::string("cube.kernel.") +
                KernelKindName(ActiveKernelKind()))
      .Set(1);
  return model;
}

size_t GridModel::IndexOf(size_t dim, uint32_t cell) const {
  HIDO_CHECK(dim < cells_.size());
  HIDO_CHECK(cell < phi());
  return dim * phi() + cell;
}

const PostingContainer& GridModel::Container(size_t dim,
                                             uint32_t cell) const {
  return containers_[IndexOf(dim, cell)];
}

size_t GridModel::RangeCardinality(size_t dim, uint32_t cell) const {
  return containers_[IndexOf(dim, cell)].cardinality();
}

double GridModel::RangeFraction(size_t dim, uint32_t cell) const {
  if (num_points_ == 0) return 0.0;
  return static_cast<double>(containers_[IndexOf(dim, cell)].cardinality()) /
         static_cast<double>(num_points_);
}

bool GridModel::Covers(size_t row,
                       const std::vector<DimRange>& conditions) const {
  HIDO_CHECK(row < num_points_);
  for (const DimRange& cond : conditions) {
    HIDO_DCHECK(cond.dim < cells_.size());
    if (cells_[cond.dim][row] != cond.cell) return false;
  }
  return true;
}

}  // namespace hido
