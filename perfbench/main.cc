// perfbench: runs one benchmark workload once in this process and prints
// one JSON object with what it measured.
//
//   perfbench <detect|ensemble|serve> --input data.csv --work-dir dir
//             [--seconds S] [--trace] [--corrupt report|response]
//
// With --trace the process also records spans around each library call,
// writes them to <work-dir>/spans.jsonl at exit, and adds the per-layer
// table. The canonical report bytes go to <work-dir>/report.txt so a
// traced and an untraced process can be compared byte for byte.

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "data/csv.h"
#include "data/encoding.h"
#include "obs/metrics.h"
#include "perfbench.h"
#include "spans.h"

namespace hido {
namespace perfbench {

// Every per-layer name a traced run prints. A workload that does not use a
// layer leaves its entries at 0.
const char* const kLayerNames[] = {
    "data.read_csv_s",
    "data.read_csv_mb_per_s",
    "grid.build_s",
    "grid.array_ranges",
    "grid.cube_queries",
    "grid.cache_hit_frac",
    "grid.prefix_hit_frac",
    "grid.prefix_evictions",
    "search.s",
    "search.evaluations",
    "search.evals_per_s",
    "postprocess.s",
    "ensemble.member_s.ga",
    "ensemble.member_s.random-subspace",
    "ensemble.member_s.hill-climb",
    "ensemble.member_s.anneal",
    "ensemble.evaluations",
    "ensemble.combine_s",
    "serve.fit_s",
    "serve.snapshot_load_s",
    "serve.process_us.v1",
    "serve.process_us.v2",
    "serve.transport_us",
    "serve.swap_ms",
    "serve.batch_mean",
    "serve.phase_a_rps",
    "serve.phase_b_rps",
    "serve.errors",
    "serve.shed",
    "serve.evictions",
    "planted_recall",
    "layer_coverage_frac",
};

DetectorConfig CliDefaultConfig() {
  DetectorConfig config;
  config.num_threads = 1;
  config.evolution.population_size = 100;
  config.evolution.max_generations = 100;
  config.evolution.restarts = 4;
  config.seed = 42;
  return config;
}

Result<Dataset> ReadInput(const std::string& path) {
  Result<EncodedDataset> encoded = ReadCsvEncoded(path, CsvReadOptions{});
  if (!encoded.ok()) return encoded.status();
  return std::move(encoded.value().data);
}

std::vector<size_t> ReadTruth(const std::string& csv_path) {
  std::vector<size_t> rows;
  std::ifstream in(csv_path + ".truth");
  size_t row = 0;
  while (in >> row) rows.push_back(row);
  return rows;
}

double ProcessCpuSeconds() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double RegistryValue(const std::string& name) {
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().TakeSnapshot();
  for (const obs::CounterSample& c : snapshot.counters) {
    if (c.name == name) return static_cast<double>(c.value);
  }
  for (const obs::GaugeSample& g : snapshot.gauges) {
    if (g.name == name) return static_cast<double>(g.value);
  }
  return 0.0;
}

HistogramTotals RegistryHistogram(const std::string& name) {
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().TakeSnapshot();
  for (const obs::HistogramSample& h : snapshot.histograms) {
    if (h.name == name) {
      return {h.snapshot.sum, static_cast<double>(h.snapshot.total_count)};
    }
  }
  return {};
}

void SetDataAndGridLayers(const Args& args, Outcome* out) {
  const double read_s = SpanRecorder::Global().TotalSeconds("data.read_csv");
  struct stat info {};
  const double mb = ::stat(args.input.c_str(), &info) == 0
                        ? static_cast<double>(info.st_size) / (1024.0 * 1024.0)
                        : 0.0;
  out->layers["data.read_csv_s"] = read_s;
  out->layers["data.read_csv_mb_per_s"] = read_s > 0.0 ? mb / read_s : 0.0;
  out->layers["grid.build_s"] =
      RegistryHistogram("trace.grid_build.seconds").sum;
  const double queries = RegistryValue("counter.queries");
  const double hits = RegistryValue("counter.cache_hits") +
                      RegistryValue("counter.shared_hits");
  const double prefix_inserts =
      RegistryValue("cube.cache.shared.prefix_insertions");
  out->layers["grid.array_ranges"] = RegistryValue("grid.containers.array");
  out->layers["grid.cube_queries"] = queries;
  out->layers["grid.cache_hit_frac"] = queries > 0.0 ? hits / queries : 0.0;
  out->layers["grid.prefix_hit_frac"] =
      prefix_inserts > 0.0
          ? RegistryValue("cube.cache.shared.prefix_hits") / prefix_inserts
          : 0.0;
  out->layers["grid.prefix_evictions"] =
      RegistryValue("cube.cache.shared.prefix_evictions");
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench <detect|ensemble|serve> --input CSV "
               "--work-dir DIR [--seconds S] [--trace] "
               "[--corrupt report|response]\n");
  return 2;
}

void PrintSection(const char* key, const std::map<std::string, double>& values) {
  std::printf("\"%s\": {", key);
  const char* sep = "";
  for (const auto& [name, value] : values) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(),
                std::isfinite(value) ? value : 0.0);
    sep = ", ";
  }
  std::printf("}");
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Args args;
  args.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--trace") {
      args.trace = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--input") {
      args.input = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--corrupt") {
      args.corrupt = value;
    } else {
      return Usage();
    }
  }
  if (args.input.empty() || args.work_dir.empty() || args.seconds <= 0.0) {
    return Usage();
  }

  Outcome out;
  if (args.trace) {
    SpanRecorder::Global().Enable(args.workload + "-" +
                                  std::to_string(::getpid()));
    for (const char* name : kLayerNames) out.layers[name] = 0.0;
  }
  int status = 0;
  if (args.workload == "detect") {
    status = RunDetectWorkload(args, &out);
  } else if (args.workload == "ensemble") {
    status = RunEnsembleWorkload(args, &out);
  } else if (args.workload == "serve") {
    status = RunServeWorkload(args, &out);
  } else {
    return Usage();
  }
  if (status != 0) return status;

  std::ofstream report(args.work_dir + "/report.txt", std::ios::binary);
  report << out.report;
  report.close();
  if (!report) {
    std::fprintf(stderr, "perfbench: cannot write report.txt\n");
    return 1;
  }
  if (args.trace &&
      !SpanRecorder::Global().WriteJsonLines(args.work_dir + "/spans.jsonl")) {
    std::fprintf(stderr, "perfbench: cannot write spans.jsonl\n");
    return 1;
  }
  std::printf("{\"attempted\": %llu, \"failed\": %llu, ",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  PrintSection("metrics", out.metrics);
  std::printf(", ");
  PrintSection("layers", out.layers);
  std::printf("}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace hido

int main(int argc, char** argv) { return hido::perfbench::Main(argc, argv); }
