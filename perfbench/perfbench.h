#ifndef HIDO_PERFBENCH_PERFBENCH_H_
#define HIDO_PERFBENCH_PERFBENCH_H_

// Shared pieces of the end-to-end benchmark binary. One process runs one
// workload once (a cold ReadCsv, then Detect or the serve phases) and
// prints a single JSON object on stdout; perfbench/run.py starts several
// such processes per run and reports medians. See perfbench/README.md.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/detector.h"
#include "data/dataset.h"

namespace hido {
namespace perfbench {

/// Command-line settings for one workload process.
struct Args {
  std::string workload;    ///< detect | ensemble | serve
  std::string input;       ///< CSV from hido-gen subspace (<input>.truth too)
  std::string work_dir;    ///< scratch for snapshots, report and spans
  double seconds = 4.0;    ///< serve: length of the timed phases together
  bool trace = false;      ///< record spans and emit the per-layer table
  /// Negative self-test: "report" damages one reported cube before the
  /// oracle sees it, "response" damages one server response.
  std::string corrupt;
};

/// What one workload process measured. Printed as JSON by main.cc.
struct Outcome {
  std::map<std::string, double> metrics;  ///< end-to-end, by name
  std::map<std::string, double> layers;   ///< per-layer (traced run only)
  uint64_t attempted = 0;                 ///< operations the oracles checked
  uint64_t failed = 0;                    ///< operations that failed them
  std::string report;                     ///< canonical bytes of the output
};

/// `hido detect`'s defaults (tools/hido_cli.cc AddSearchFlags): --threads
/// 1, phi and k automatic, m = 20, population 100, 100 generations, 4
/// restarts, seed 42. Cache mode, kernel and containers keep the library
/// defaults, which are also the CLI's.
DetectorConfig CliDefaultConfig();

/// The CSV ingest `hido detect`, `hido fit` and `hido serve`'s fit pay:
/// tools/hido_cli.cc LoadInput with its defaults (header row, no label
/// column, --encode-categorical on), i.e. ReadCsvEncoded.
Result<Dataset> ReadInput(const std::string& path);

/// Reads `<csv>.truth` (one planted row id per line).
std::vector<size_t> ReadTruth(const std::string& csv_path);

/// Process user+system CPU seconds and peak RSS in MB so far.
double ProcessCpuSeconds();
double PeakRssMb();

/// The counter or gauge `name` in obs::MetricsRegistry::Global(); a name
/// the program no longer registers reads as 0.
double RegistryValue(const std::string& name);

/// Sum and observation count of a registry histogram (zeros when absent).
struct HistogramTotals {
  double sum = 0.0;
  double count = 0.0;
};
HistogramTotals RegistryHistogram(const std::string& name);

/// Fills the data.* entries of `out->layers` (ingest time from the
/// data.read_csv spans, and its rate) and the grid.* entries from the
/// registry: grid build time, queries, cache and prefix-memo hit shares,
/// prefix evictions, array containers.
void SetDataAndGridLayers(const Args& args, Outcome* out);

int RunDetectWorkload(const Args& args, Outcome* out);
int RunEnsembleWorkload(const Args& args, Outcome* out);
int RunServeWorkload(const Args& args, Outcome* out);

}  // namespace perfbench
}  // namespace hido

#endif  // HIDO_PERFBENCH_PERFBENCH_H_
