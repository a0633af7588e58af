// detect-100k and ensemble-100k: one cold ingest, then one Detect call,
// per process -- what `hido detect` and `hido detect --ensemble` pay.

#include <cstdio>
#include <string>

#include "common/string_util.h"
#include "common/timer.h"
#include "core/report_io.h"
#include "core/scoring.h"
#include "ensemble/ensemble_detector.h"
#include "oracle.h"
#include "perfbench.h"
#include "spans.h"

namespace hido {
namespace perfbench {

namespace {

// Set-up of both detect workloads: the CSV ingest a user pays first.
bool LoadInput(const Args& args, Dataset* data, double* setup_s) {
  const StopWatch watch;
  Result<Dataset> read = [&] {
    const Span span("data.read_csv");
    return ReadInput(args.input);
  }();
  *setup_s = watch.ElapsedSeconds();
  if (!read.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", read.status().ToString().c_str());
    return false;
  }
  *data = std::move(read.value());
  return true;
}

// `cpu_s` and `peak_rss_mb` are read right after Detect, before the oracle.
void SetEndToEnd(Outcome* out, double setup_s, double detect_s, double cpu_s,
                 double peak_rss_mb, double neg_sparsity) {
  out->metrics["setup_s"] = setup_s;
  out->metrics["detect_s"] = detect_s;
  out->metrics["cpu_s"] = cpu_s;
  out->metrics["peak_rss_mb"] = peak_rss_mb;
  out->metrics["top_m_neg_sparsity"] = neg_sparsity;
}

}  // namespace

int RunDetectWorkload(const Args& args, Outcome* out) {
  Dataset data;
  double setup_s = 0.0;
  if (!LoadInput(args, &data, &setup_s)) return 1;

  const OutlierDetector detector(CliDefaultConfig());
  const StopWatch watch;
  DetectionResult result = [&] {
    const Span span("core.detect");
    return detector.Detect(data);
  }();
  const double detect_s = watch.ElapsedSeconds();
  const double cpu_s = ProcessCpuSeconds();
  const double peak_rss_mb = PeakRssMb();

  if (args.corrupt == "report" && !result.report.projections.empty()) {
    result.report.projections[0].count += 1;
  }
  const CubeCheck check = CheckCubes(result.grid, result.report.projections);
  out->attempted = check.checked + 1;
  out->failed = check.failed + (result.completed ? 0 : 1);
  SetEndToEnd(out, setup_s, detect_s, cpu_s, peak_rss_mb,
              check.mean_neg_sparsity);
  out->report = ProjectionsToCsv(result.report) + OutliersToCsv(result.report);

  if (args.trace) {
    SetDataAndGridLayers(args, out);
    const EvolutionStats& stats = result.evolution_stats;
    out->layers["search.s"] = stats.seconds;
    out->layers["search.evaluations"] = static_cast<double>(stats.evaluations);
    out->layers["search.evals_per_s"] =
        stats.seconds > 0.0 ? static_cast<double>(stats.evaluations) /
                                  stats.seconds
                            : 0.0;
    out->layers["postprocess.s"] =
        RegistryHistogram("trace.postprocess.seconds").sum;
    out->layers["planted_recall"] = PlantedRecall(
        RankRows(ScoreAllPoints(result.grid, result.report.projections)),
        ReadTruth(args.input));
    out->layers["layer_coverage_frac"] =
        (out->layers["data.read_csv_s"] + out->layers["grid.build_s"] +
         out->layers["search.s"] + out->layers["postprocess.s"]) /
        (setup_s + detect_s);
  }
  return 0;
}

int RunEnsembleWorkload(const Args& args, Outcome* out) {
  Dataset data;
  double setup_s = 0.0;
  if (!LoadInput(args, &data, &setup_s)) return 1;

  // `hido detect --ensemble 8 --ensemble-mix ga,random-subspace,hill-climb,
  // anneal --combiner mean`, parsed the way the CLI parses it.
  ensemble::EnsembleConfig config;
  config.base = CliDefaultConfig();
  config.ensemble.num_members = 8;
  Result<std::vector<ensemble::MemberKind>> mix =
      ensemble::ParseMemberMix("ga,random-subspace,hill-climb,anneal");
  if (!mix.ok() ||
      !ensemble::ParseCombinerKind("mean", &config.ensemble.combiner)) {
    std::fprintf(stderr, "perfbench: bad ensemble settings\n");
    return 1;
  }
  config.ensemble.mix = std::move(mix.value());

  const ensemble::EnsembleDetector detector(config);
  const StopWatch watch;
  ensemble::EnsembleDetectionResult result = [&] {
    const Span span("ensemble.detect");
    return detector.Detect(data);
  }();
  const double detect_s = watch.ElapsedSeconds();
  const double cpu_s = ProcessCpuSeconds();
  const double peak_rss_mb = PeakRssMb();

  std::vector<ScoredProjection> cubes;
  for (const ensemble::EnsembleMemberResult& member : result.members) {
    cubes.insert(cubes.end(), member.projections.begin(),
                 member.projections.end());
  }
  if (args.corrupt == "report" && !cubes.empty()) cubes[0].count += 1;
  const CubeCheck check = CheckCubes(result.grid, cubes);
  out->attempted = check.checked + 1;
  out->failed = check.failed + (result.completed ? 0 : 1);
  SetEndToEnd(out, setup_s, detect_s, cpu_s, peak_rss_mb,
              check.mean_neg_sparsity);

  std::string report;
  for (const ensemble::EnsembleMemberResult& member : result.members) {
    report += StrFormat("member %s seed %llu evaluations %llu scale %.17g\n",
                        ensemble::MemberKindToString(member.kind),
                        static_cast<unsigned long long>(member.seed),
                        static_cast<unsigned long long>(member.evaluations),
                        member.score_scale);
    for (const ScoredProjection& cube : member.projections) {
      report += StrFormat("  %s %zu %.17g\n",
                          cube.projection.ToString().c_str(), cube.count,
                          cube.sparsity);
    }
  }
  for (size_t i = 0; i < result.ranked_rows.size() && i < 1000; ++i) {
    const ensemble::EnsemblePointScore& s = result.scores[result.ranked_rows[i]];
    report += StrFormat("row %zu %.17g %zu\n", s.row, s.score,
                        s.covering_projections);
  }
  out->report = std::move(report);

  if (args.trace) {
    SetDataAndGridLayers(args, out);
    double members_s = 0.0;
    uint64_t evaluations = 0;
    for (const ensemble::EnsembleMemberResult& member : result.members) {
      out->layers[std::string("ensemble.member_s.") +
                  ensemble::MemberKindToString(member.kind)] += member.seconds;
      members_s += member.seconds;
      evaluations += member.evaluations;
    }
    out->layers["ensemble.evaluations"] = static_cast<double>(evaluations);
    out->layers["ensemble.combine_s"] =
        RegistryHistogram("trace.ensemble_combine.seconds").sum;
    out->layers["planted_recall"] =
        PlantedRecall(result.ranked_rows, ReadTruth(args.input));
    out->layers["layer_coverage_frac"] =
        (out->layers["data.read_csv_s"] + out->layers["grid.build_s"] +
         members_s + out->layers["ensemble.combine_s"]) /
        (setup_s + detect_s);
  }
  return 0;
}

}  // namespace perfbench
}  // namespace hido
