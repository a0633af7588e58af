#ifndef HIDO_DATA_CSV_H_
#define HIDO_DATA_CSV_H_

// CSV input/output so real datasets (e.g. the UCI files the paper used) can
// be dropped into the benchmarks in place of the bundled synthetic stand-ins.

#include <string>
#include <vector>

#include "common/run_control.h"
#include "common/status.h"
#include "data/dataset.h"

namespace hido {

/// Options for ReadCsv.
struct CsvReadOptions {
  char delimiter = ',';  ///< field separator
  /// Treat the first line as column names.
  bool has_header = true;
  /// Column index holding the class label, or -1 for none. The label column
  /// is removed from the numeric data and installed via Dataset::SetLabels.
  int label_column = -1;
  /// Accept "", "?", "na", "nan", "null" as missing values.
  bool allow_missing = true;
  /// Skip blank lines instead of failing on them.
  bool skip_blank_lines = true;
  /// Reject fields longer than this many bytes — the usual symptom of a
  /// wrong delimiter or a binary file fed in by mistake. 0 disables.
  size_t max_field_bytes = 4096;
  /// Reject rows wider than this many columns. 0 disables.
  size_t max_columns = 65536;
  /// Cooperative cancellation (nullable; must outlive the read), polled
  /// every 1024 lines. A fired token fails the read with kCancelled or
  /// kDeadlineExceeded — parsing is all-or-nothing, so there is no partial
  /// dataset to salvage. Shared by ReadCsv and ReadCsvEncoded.
  const StopToken* stop = nullptr;
};

/// Options for WriteCsv.
struct CsvWriteOptions {
  char delimiter = ',';      ///< field separator
  bool write_header = true;  ///< emit the column-name row?
  /// Spelling used for missing cells.
  std::string missing_token = "?";
  /// Append the label column (named "label") when the dataset has labels.
  bool write_labels = true;
};

/// Parses `path` into a Dataset. Fails (no partial result) on ragged rows,
/// non-numeric fields (other than missing tokens), embedded NUL bytes,
/// fields/rows beyond the size caps, or unreadable files; every parse error
/// carries 1-based line (and where it applies, column) context.
Result<Dataset> ReadCsv(const std::string& path,
                        const CsvReadOptions& options = {});

/// Parses CSV text directly (same semantics as ReadCsv). Without a header,
/// columns are named "c<file column index>", label column included in the
/// count.
Result<Dataset> ReadCsvString(const std::string& text,
                              const CsvReadOptions& options = {});

/// Writes `data` to `path`.
Status WriteCsv(const Dataset& data, const std::string& path,
                const CsvWriteOptions& options = {});

/// Serializes `data` to CSV text.
std::string WriteCsvString(const Dataset& data,
                           const CsvWriteOptions& options = {});

}  // namespace hido

#endif  // HIDO_DATA_CSV_H_
