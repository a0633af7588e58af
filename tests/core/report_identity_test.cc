// The determinism contract, end to end: the detection report is a pure
// function of (data, seed, logical configuration). Counting kernels,
// container thresholds, thread counts, and the cube-count memo change
// which code computes each count — never the count — so the serialized
// report must be byte-identical across all of them.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitset_kernels.h"
#include "core/detector.h"
#include "core/objective.h"
#include "core/report_io.h"
#include "data/generators/synthetic.h"
#include "grid/cube_counter.h"
#include "grid/grid_model.h"

namespace hido {
namespace {

DetectorConfig BaseConfig() {
  DetectorConfig config;
  config.phi = 5;
  config.target_dim = 3;
  config.num_projections = 6;
  config.evolution.population_size = 30;
  config.evolution.max_generations = 20;
  config.evolution.restarts = 1;
  config.seed = 11;
  return config;
}

std::string RunAndSerialize(const Dataset& data, const DetectorConfig& config) {
  const DetectionResult result = OutlierDetector(config).Detect(data);
  return ProjectionsToCsv(result.report) + OutliersToCsv(result.report);
}

// Detect's evolutionary pipeline spelled out at the counter level, so the
// test can choose the CubeCounter options (Detect always runs the memo).
std::string RunWithCounterOptions(const Dataset& data,
                                  const DetectorConfig& config,
                                  const CubeCounter::Options& copts) {
  GridModel::Options gopts;
  gopts.phi = config.phi;
  gopts.mode = config.binning;
  gopts.array_threshold = config.container_threshold;
  const GridModel grid = GridModel::Build(data, gopts);
  CubeCounter counter(grid, copts);
  SparsityObjective objective(counter, config.expectation);
  EvolutionaryOptions eopts = config.evolution;
  eopts.target_dim = config.target_dim;
  eopts.num_projections = config.num_projections;
  eopts.seed = config.seed;
  if (config.num_threads != 0) eopts.num_threads = config.num_threads;
  const OutlierReport report =
      ExtractOutliers(grid, EvolutionarySearch(objective, eopts).best);
  return ProjectionsToCsv(report) + OutliersToCsv(report);
}

CubeCounter::Options MemoOff() {
  CubeCounter::Options copts;
  copts.cache_capacity = 0;
  return copts;
}

// Every (kernel, container threshold, threads, memo on/off) variant must
// reproduce the baseline report byte for byte.
TEST(ReportIdentityTest, InvariantAcrossKernelsContainersThreadsAndCaches) {
  SubspaceOutlierConfig gen;
  gen.num_points = 250;
  gen.num_dims = 8;
  gen.num_groups = 2;
  gen.num_outliers = 4;
  gen.seed = 3;
  const GeneratedDataset g = GenerateSubspaceOutliers(gen);

  const std::string baseline = RunAndSerialize(g.data, BaseConfig());
  ASSERT_FALSE(baseline.empty());

  // Kernel axis: force every kernel this host can run.
  for (KernelKind kind : AvailableKernels()) {
    ScopedKernelOverride forced(kind);
    EXPECT_EQ(RunAndSerialize(g.data, BaseConfig()), baseline)
        << "kernel " << KernelKindName(kind);
  }

  // Container-threshold axis: all bitmaps, all arrays, and the auto mix.
  for (size_t threshold :
       {size_t{0}, size_t{gen.num_points + 1}, GridModel::kAutoArrayThreshold}) {
    DetectorConfig config = BaseConfig();
    config.container_threshold = threshold;
    EXPECT_EQ(RunAndSerialize(g.data, config), baseline)
        << "container_threshold " << threshold;
  }

  // Thread axis.
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    DetectorConfig config = BaseConfig();
    config.num_threads = threads;
    EXPECT_EQ(RunAndSerialize(g.data, config), baseline)
        << "threads " << threads;
  }

  // Memo axis, at the counter level: the same pipeline with the memo on
  // (the default options) and off (cache_capacity = 0).
  EXPECT_EQ(RunWithCounterOptions(g.data, BaseConfig(), CubeCounter::Options()),
            baseline)
      << "memo on";
  EXPECT_EQ(RunWithCounterOptions(g.data, BaseConfig(), MemoOff()), baseline)
      << "memo off";

  // Cross terms: the axes compose — a scalar-kernel, all-array,
  // multi-threaded, memo-off run still reproduces the baseline.
  {
    ScopedKernelOverride forced(KernelKind::kScalar);
    DetectorConfig config = BaseConfig();
    config.container_threshold = gen.num_points + 1;
    config.num_threads = 8;
    EXPECT_EQ(RunWithCounterOptions(g.data, config, MemoOff()), baseline);
  }
  {
    ScopedKernelOverride forced(BestAvailableKernel());
    DetectorConfig config = BaseConfig();
    config.container_threshold = 0;
    config.num_threads = 2;
    EXPECT_EQ(RunAndSerialize(g.data, config), baseline);
  }
}

// Same contract for the brute-force search, which drives the container
// AndInto/MaterializeInto descent directly.
TEST(ReportIdentityTest, BruteForceInvariantAcrossKernelsAndContainers) {
  SubspaceOutlierConfig gen;
  gen.num_points = 150;
  gen.num_dims = 5;
  gen.num_groups = 2;
  gen.num_outliers = 3;
  gen.seed = 9;
  const GeneratedDataset g = GenerateSubspaceOutliers(gen);

  DetectorConfig base = BaseConfig();
  base.algorithm = SearchAlgorithm::kBruteForce;
  base.target_dim = 2;
  const std::string baseline = RunAndSerialize(g.data, base);
  ASSERT_FALSE(baseline.empty());

  for (KernelKind kind : AvailableKernels()) {
    for (size_t threshold : {size_t{0}, size_t{gen.num_points + 1}}) {
      ScopedKernelOverride forced(kind);
      DetectorConfig config = base;
      config.container_threshold = threshold;
      EXPECT_EQ(RunAndSerialize(g.data, config), baseline)
          << KernelKindName(kind) << " threshold " << threshold;
    }
  }
}

}  // namespace
}  // namespace hido
