// Acceptance tests for the telemetry determinism contract
// (obs/telemetry.h): the deterministic sections of a run's metrics are
// byte-identical at any thread count, and a run resumed from a checkpoint
// publishes the same cumulative counters as one that was never
// interrupted.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitset_kernels.h"
#include "common/run_control.h"
#include "common/string_util.h"
#include "core/detector.h"
#include "core/objective.h"
#include "core/search_checkpoint.h"
#include "data/generators/synthetic.h"
#include "grid/cube_counter.h"
#include "obs/telemetry.h"

namespace hido {
namespace obs {
namespace {

// Counters documented as scheduling-dependent (see obs/telemetry.h): the
// cube-counter per-worker caches restart cold and its strategy dispatch
// depends on which worker claims a query, so their breakdowns move between
// schedules while their total (counter.queries) does not. The whole
// serving-path family (memo hits, evictions) is variant for the same
// reason.
bool IsThreadVariant(const std::string& name) {
  return name == "counter.cache_hits" || name == "counter.bitset_counts" ||
         name == "counter.posting_counts" || name == "counter.naive_counts" ||
         name == "counter.cache_evictions" || name == "counter.cache_clears" ||
         // Configuration-variant, same contract section: the grid's
         // array/bitmap split follows the container threshold.
         name.rfind("grid.containers.", 0) == 0;
}

// Histograms documented as wall-clock (`variant` in the contract): span
// durations (trace.<span>.seconds), member/combine durations, and the
// serve-side latency family. Their *presence* is thread-invariant; their
// bucket contents are timing and stay out of the compared bytes.
bool IsThreadVariantHistogram(const std::string& name) {
  return name.rfind("trace.", 0) == 0 || name.rfind("serve.", 0) == 0 ||
         name.rfind("ensemble.", 0) == 0;
}

// Flattens a report to bytes so runs can be compared for the documented
// bit-identical-results contract.
std::string SerializeReport(const OutlierReport& report) {
  std::string out;
  for (const ScoredProjection& s : report.projections) {
    out += s.projection.ToString();
    out += StrFormat("|count=%zu|sparsity=%.17g\n", s.count, s.sparsity);
  }
  for (const OutlierRecord& o : report.outliers) {
    out += StrFormat("row=%zu|best=%.17g|covering=", o.row, o.best_sparsity);
    for (size_t id : o.projection_ids) out += StrFormat("%zu,", id);
    out += "\n";
  }
  return out;
}

// Runs one full detection at `threads` workers against a clean registry
// and returns the serialized thread-invariant counter + histogram
// sections. With `counter_options` set, Detect's evolutionary pipeline
// runs spelled out at the counter level with those CubeCounter options
// instead (Detect always runs the memo), so the memo can be switched off.
std::string DetectAndSerializeInvariantSections(
    const Dataset& data, size_t threads, std::string* report_bytes = nullptr,
    size_t container_threshold = GridModel::kAutoArrayThreshold,
    const CubeCounter::Options* counter_options = nullptr) {
  MetricsRegistry::Global().ResetForTest();
  Tracer::Global().Reset();

  DetectorConfig config;
  config.phi = 4;
  config.target_dim = 2;
  config.num_projections = 6;
  config.evolution.population_size = 24;
  config.evolution.max_generations = 15;
  config.evolution.stagnation_generations = 0;
  config.evolution.restarts = 2;
  config.seed = 29;
  config.num_threads = threads;
  config.container_threshold = container_threshold;
  OutlierReport report;
  if (counter_options == nullptr) {
    DetectionResult result = OutlierDetector(config).Detect(data);
    EXPECT_TRUE(result.completed);
    report = std::move(result.report);
  } else {
    GridModel::Options grid_options;
    grid_options.phi = config.phi;
    grid_options.array_threshold = container_threshold;
    const GridModel grid = GridModel::Build(data, grid_options);
    CubeCounter counter(grid, *counter_options);
    SparsityObjective objective(counter);
    EvolutionaryOptions eopts = config.evolution;
    eopts.target_dim = config.target_dim;
    eopts.num_projections = config.num_projections;
    eopts.seed = config.seed;
    eopts.num_threads = threads;
    EvolutionResult search = EvolutionarySearch(objective, eopts);
    EXPECT_TRUE(search.stats.completed);
    report = ExtractOutliers(grid, std::move(search.best));
  }
  if (report_bytes != nullptr) *report_bytes = SerializeReport(report);

  RunTelemetry telemetry = CaptureRunTelemetry("invariance test");
  RunTelemetry filtered;
  filtered.tool = telemetry.tool;
  for (const CounterSample& counter : telemetry.metrics.counters) {
    if (!IsThreadVariant(counter.name)) {
      filtered.metrics.counters.push_back(counter);
    }
  }
  for (const HistogramSample& histogram : telemetry.metrics.histograms) {
    if (!IsThreadVariantHistogram(histogram.name)) {
      filtered.metrics.histograms.push_back(histogram);
    }
  }
  // Gauges (pool.*) and timing are wall-clock/schedule territory by
  // definition; they stay out of the compared bytes.
  return SerializeRunTelemetry(filtered);
}

TEST(TelemetryInvarianceTest, InvariantCountersAreByteIdenticalAcrossThreads) {
  const Dataset data = GenerateUniform(300, 8, 13);
  const std::string at_one = DetectAndSerializeInvariantSections(data, 1);
  const std::string at_two = DetectAndSerializeInvariantSections(data, 2);
  const std::string at_eight = DetectAndSerializeInvariantSections(data, 8);
  EXPECT_EQ(at_one, at_two);
  EXPECT_EQ(at_one, at_eight);
  // Sanity: the compared bytes actually contain the work counters.
  EXPECT_NE(at_one.find("search.evaluations"), std::string::npos);
  EXPECT_NE(at_one.find("search.crossovers"), std::string::npos);
  EXPECT_NE(at_one.find("counter.queries"), std::string::npos);
  EXPECT_NE(at_one.find("search.restart_generations"), std::string::npos);
}

// The memo acceptance criterion: the outlier report and the invariant
// telemetry sections are byte-identical with the cube-count memo on and
// off (cache_capacity = 0) at every thread count — memoization changes
// which code path computes a count, never its value.
TEST(TelemetryInvarianceTest,
     ReportAndInvariantCountersAreIdenticalAcrossCacheModes) {
  const Dataset data = GenerateUniform(300, 8, 13);
  std::string detect_report;
  DetectAndSerializeInvariantSections(data, 1, &detect_report);
  ASSERT_FALSE(detect_report.empty());
  CubeCounter::Options memo_on;
  std::string baseline_report;
  const std::string baseline = DetectAndSerializeInvariantSections(
      data, 1, &baseline_report, GridModel::kAutoArrayThreshold, &memo_on);
  EXPECT_EQ(baseline_report, detect_report);
  CubeCounter::Options memo_off;
  memo_off.cache_capacity = 0;
  for (const CubeCounter::Options* options : {&memo_on, &memo_off}) {
    const char* memo = options == &memo_on ? "on" : "off";
    for (const size_t threads : {1u, 2u, 8u}) {
      std::string report;
      const std::string sections = DetectAndSerializeInvariantSections(
          data, threads, &report, GridModel::kAutoArrayThreshold, options);
      EXPECT_EQ(sections, baseline) << "memo=" << memo
                                    << " threads=" << threads;
      EXPECT_EQ(report, baseline_report) << "memo=" << memo
                                         << " threads=" << threads;
    }
  }
}

// The counting-substrate acceptance criterion (kernels + containers are
// encoding knobs): the report and invariant telemetry sections are
// byte-identical under every counting kernel this host can run and every
// container-threshold extreme, alone and crossed with threads.
TEST(TelemetryInvarianceTest,
     ReportAndInvariantCountersAreIdenticalAcrossKernelsAndContainers) {
  const Dataset data = GenerateUniform(300, 8, 13);
  std::string baseline_report;
  const std::string baseline =
      DetectAndSerializeInvariantSections(data, 1, &baseline_report);
  ASSERT_FALSE(baseline_report.empty());
  for (const KernelKind kind : AvailableKernels()) {
    const ScopedKernelOverride forced(kind);
    for (const size_t threshold :
         {size_t{0}, size_t{301}, GridModel::kAutoArrayThreshold}) {
      for (const size_t threads : {1u, 8u}) {
        std::string report;
        const std::string sections = DetectAndSerializeInvariantSections(
            data, threads, &report, threshold);
        EXPECT_EQ(sections, baseline)
            << "kernel=" << KernelKindName(kind)
            << " threshold=" << threshold << " threads=" << threads;
        EXPECT_EQ(report, baseline_report)
            << "kernel=" << KernelKindName(kind)
            << " threshold=" << threshold << " threads=" << threads;
      }
    }
  }
}

uint64_t CounterValue(const MetricsSnapshot& snapshot,
                      const std::string& name) {
  for (const CounterSample& counter : snapshot.counters) {
    if (counter.name == name) return counter.value;
  }
  ADD_FAILURE() << "counter not published: " << name;
  return 0;
}

// The resume-continuity acceptance criterion: interrupt a search, resume
// it from the checkpoint, and the resumed run's *published* cumulative
// counters equal the uninterrupted run's — the tallies persist through the
// checkpoint (format v2 `ops` line) instead of restarting at zero.
TEST(TelemetryInvarianceTest, ResumedRunPublishesUninterruptedTotals) {
  const Dataset data = GenerateUniform(300, 8, 7);
  GridModel::Options grid_options;
  grid_options.phi = 4;
  const GridModel grid = GridModel::Build(data, grid_options);
  CubeCounter counter(grid);
  SparsityObjective objective(counter);

  EvolutionaryOptions opts;
  opts.target_dim = 2;
  opts.num_projections = 6;
  opts.population_size = 24;
  opts.max_generations = 40;
  opts.stagnation_generations = 0;
  opts.restarts = 3;
  opts.seed = 17;

  MetricsRegistry::Global().ResetForTest();
  const EvolutionResult uninterrupted = EvolutionarySearch(objective, opts);
  ASSERT_TRUE(uninterrupted.stats.completed);
  const MetricsSnapshot full = MetricsRegistry::Global().TakeSnapshot();

  const std::string path =
      ::testing::TempDir() + "/hido_telemetry_resume.txt";
  EvolutionaryOptions interrupted_opts = opts;
  interrupted_opts.checkpoint_path = path;
  interrupted_opts.checkpoint_every_generations = 3;
  StopToken token;
  token.ArmFailpoint(20);
  interrupted_opts.stop = &token;
  const EvolutionResult interrupted =
      EvolutionarySearch(objective, interrupted_opts);
  ASSERT_FALSE(interrupted.stats.completed);

  Result<EvolutionCheckpoint> checkpoint = LoadCheckpoint(path);
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();

  MetricsRegistry::Global().ResetForTest();
  EvolutionaryOptions resume_opts = opts;
  resume_opts.resume = &checkpoint.value();
  const EvolutionResult resumed = EvolutionarySearch(objective, resume_opts);
  ASSERT_TRUE(resumed.stats.completed);
  const MetricsSnapshot after_resume =
      MetricsRegistry::Global().TakeSnapshot();

  for (const char* name :
       {"search.runs", "search.generations", "search.evaluations",
        "search.crossovers", "search.mutations", "search.selections",
        "search.restarts_completed", "counter.queries"}) {
    EXPECT_EQ(CounterValue(after_resume, name), CounterValue(full, name))
        << name;
  }
  EXPECT_EQ(CounterValue(after_resume, "checkpoint.resumes"), 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace obs
}  // namespace hido
