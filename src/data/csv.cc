#include "data/csv.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "common/file_util.h"
#include "common/string_util.h"
#include "data/encoding.h"
#include "obs/metrics.h"

namespace hido {

namespace {

// Structural sanity for one split line (header or data): no embedded NUL
// bytes, no fields past the byte cap, no rows past the column cap. These
// are the signatures of binary garbage or a wrong delimiter, and catching
// them here keeps the error message pointed at the exact line and column
// instead of surfacing as a confusing numeric-parse failure downstream.
Status CheckCsvFields(const std::vector<std::string_view>& fields,
                      size_t line_no, const CsvReadOptions& options) {
  if (options.max_columns != 0 && fields.size() > options.max_columns) {
    return Status::ParseError(
        StrFormat("csv: line %zu has %zu fields, over the %zu-column limit",
                  line_no, fields.size(), options.max_columns));
  }
  for (size_t c = 0; c < fields.size(); ++c) {
    if (fields[c].find('\0') != std::string_view::npos) {
      return Status::ParseError(StrFormat(
          "csv: line %zu column %zu: embedded NUL byte (binary input?)",
          line_no, c + 1));
    }
    if (options.max_field_bytes != 0 &&
        fields[c].size() > options.max_field_bytes) {
      return Status::ParseError(StrFormat(
          "csv: line %zu column %zu: %zu-byte field is over the %zu-byte "
          "limit (wrong delimiter?)",
          line_no, c + 1, fields[c].size(), options.max_field_bytes));
    }
  }
  return Status::Ok();
}

// Line stride between StopToken polls while parsing (kept coarse: a poll
// is an atomic read or two, but the per-line work is only a few hundred
// nanoseconds).
constexpr size_t kCsvPollStride = 1024;

// One data line kept for the categorical rescan: its bytes (CR already
// stripped) as an (offset, length) span of the text.
struct LineSpan {
  size_t offset;
  size_t length;
};

// Ordinal-encodes the columns flagged in `is_categorical` (indexed by file
// column). The scan left 0.0 in their non-missing cells; one re-split of
// the kept lines serves every categorical column at once. Each cell first
// gets its value's first-seen id, then the ids are remapped to the rank of
// the value in the column's sorted dictionary.
void EncodeCategorical(std::string_view text, const CsvReadOptions& options,
                       const std::vector<LineSpan>& spans,
                       const std::vector<bool>& is_categorical,
                       std::vector<std::vector<double>>& columns,
                       const std::vector<std::vector<uint8_t>>& missing,
                       std::vector<CategoricalMapping>* categorical) {
  const int label_col = options.label_column;
  std::vector<size_t> file_cols;  // categorical file columns, ascending
  std::vector<size_t> out_cols;   // their index with the label removed
  for (size_t c = 0, out = 0; c < is_categorical.size(); ++c) {
    if (label_col >= 0 && c == static_cast<size_t>(label_col)) continue;
    if (is_categorical[c]) {
      file_cols.push_back(c);
      out_cols.push_back(out);
    }
    ++out;
  }
  auto is_missing = [&](size_t col, size_t row) {
    return !missing[col].empty() && missing[col][row] != 0;
  };
  std::vector<std::unordered_map<std::string_view, uint32_t>> ids(
      file_cols.size());
  std::vector<std::string_view> fields;
  for (size_t r = 0; r < spans.size(); ++r) {
    SplitViews(text.substr(spans[r].offset, spans[r].length),
               options.delimiter, &fields);
    for (size_t k = 0; k < file_cols.size(); ++k) {
      if (is_missing(out_cols[k], r)) continue;
      const auto next_id = static_cast<uint32_t>(ids[k].size());
      columns[out_cols[k]][r] =
          ids[k].try_emplace(Trim(fields[file_cols[k]]), next_id)
              .first->second;
    }
  }
  for (size_t k = 0; k < file_cols.size(); ++k) {
    std::vector<std::string_view> by_id(ids[k].size());
    for (const auto& [value, id] : ids[k]) by_id[id] = value;
    std::vector<uint32_t> order(by_id.size());  // ids in value order
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](uint32_t a, uint32_t b) { return by_id[a] < by_id[b]; });
    std::vector<double> code(by_id.size());
    CategoricalMapping mapping;
    mapping.column = out_cols[k];
    for (size_t rank = 0; rank < order.size(); ++rank) {
      code[order[rank]] = static_cast<double>(rank);
      mapping.values.emplace_back(by_id[order[rank]]);
    }
    std::vector<double>& column = columns[out_cols[k]];
    for (size_t r = 0; r < spans.size(); ++r) {
      if (!is_missing(out_cols[k], r)) {
        column[r] = code[static_cast<size_t>(column[r])];
      }
    }
    categorical->push_back(std::move(mapping));
  }
}

// The one scanner behind ReadCsv and ReadCsvEncoded: walks the lines and
// fields of `text` as views and parses each field straight into its column.
// With `categorical` null a non-numeric field is a ParseError; otherwise its
// column is ordinal-encoded and the mapping appended to `categorical`.
Result<Dataset> ScanCsv(std::string_view text, const CsvReadOptions& options,
                        std::vector<CategoricalMapping>* categorical) {
  if (options.stop != nullptr && options.stop->ShouldStop()) {
    return StopStatus(*options.stop, "csv read");
  }
  const int label_col = options.label_column;
  // Sized on first use: from the header, else from the first data line.
  size_t width = 0;
  std::vector<std::string> header;
  std::vector<std::vector<double>> columns;
  std::vector<std::vector<uint8_t>> missing;
  std::vector<bool> is_categorical;  // by file column
  std::vector<LineSpan> spans;
  std::vector<int32_t> labels;
  size_t rows = 0;
  // An upper bound on the row count (lines, and bytes over the row width),
  // so columns grow without reallocating.
  const size_t lines =
      static_cast<size_t>(std::count(text.begin(), text.end(), '\n')) + 1;

  auto set_width = [&](size_t w) -> Status {
    width = w;
    if (label_col >= 0 && static_cast<size_t>(label_col) >= width) {
      return Status::InvalidArgument(
          StrFormat("csv: label_column %d out of range (width %zu)",
                    label_col, width));
    }
    const size_t out_width = width - (label_col >= 0 ? 1 : 0);
    columns.resize(out_width);
    const size_t max_rows = std::min(lines, text.size() / width + 1);
    for (std::vector<double>& column : columns) column.reserve(max_rows);
    missing.resize(out_width);
    is_categorical.assign(width, false);
    return Status::Ok();
  };

  std::vector<std::string_view> fields;
  size_t pos = 0;
  for (size_t line_idx = 0; pos <= text.size(); ++line_idx) {
    const size_t newline = text.find('\n', pos);
    const size_t end = newline == std::string_view::npos ? text.size()
                                                         : newline;
    const size_t offset = pos;
    size_t length = end - pos;
    pos = end + 1;
    if (length > 0 && text[offset + length - 1] == '\r') --length;
    // A trailing newline leaves one empty final piece; it is not a line.
    if (newline == std::string_view::npos && length == 0) break;
    const std::string_view line = text.substr(offset, length);
    const size_t line_no = line_idx + 1;

    if (options.stop != nullptr &&
        line_idx % kCsvPollStride == kCsvPollStride - 1 &&
        options.stop->ShouldStop()) {
      return StopStatus(*options.stop, "csv read");
    }
    if (Trim(line).empty()) {
      if (options.skip_blank_lines) continue;
      return Status::ParseError(StrFormat("csv: blank line %zu", line_no));
    }
    SplitViews(line, options.delimiter, &fields);
    HIDO_RETURN_IF_ERROR(CheckCsvFields(fields, line_no, options));
    if (options.has_header && width == 0) {
      for (std::string_view name : fields) header.emplace_back(Trim(name));
      HIDO_RETURN_IF_ERROR(set_width(fields.size()));
      continue;
    }
    if (width == 0) HIDO_RETURN_IF_ERROR(set_width(fields.size()));
    if (fields.size() != width) {
      return Status::ParseError(
          StrFormat("csv: line %zu has %zu fields, expected %zu", line_no,
                    fields.size(), width));
    }

    for (size_t c = 0, out = 0; c < width; ++c) {
      const std::string_view field = Trim(fields[c]);
      if (label_col >= 0 && c == static_cast<size_t>(label_col)) {
        const Result<int64_t> label = ParseInt(field);
        if (!label.ok()) {
          return Status::ParseError(
              StrFormat("csv: line %zu column %zu: bad label '%s'", line_no,
                        c + 1, std::string(field).c_str()));
        }
        labels.push_back(static_cast<int32_t>(label.value()));
        continue;
      }
      std::vector<double>& column = columns[out];
      std::vector<uint8_t>& mask = missing[out];
      ++out;
      if (options.allow_missing && IsMissingToken(field)) {
        if (mask.empty()) mask.assign(rows, 0);
        mask.push_back(1);
        column.push_back(std::numeric_limits<double>::quiet_NaN());
        continue;
      }
      if (!mask.empty()) mask.push_back(0);
      if (is_categorical[c]) {
        column.push_back(0.0);  // coded by EncodeCategorical
        continue;
      }
      const Result<double> value = ParseDouble(field);
      if (value.ok()) {
        column.push_back(value.value());
        continue;
      }
      if (categorical == nullptr) {
        return Status::ParseError(
            StrFormat("csv: line %zu column %zu: %s", line_no, c + 1,
                      value.status().message().c_str()));
      }
      is_categorical[c] = true;
      column.push_back(0.0);
    }
    if (categorical != nullptr) spans.push_back({offset, length});
    ++rows;
  }
  if (width == 0) {  // nothing but blank lines
    if (options.has_header) {
      return Status::ParseError("csv: missing header line");
    }
    // No column can hold a label: set_width fails the range check.
    if (label_col >= 0) HIDO_RETURN_IF_ERROR(set_width(0));
  }

  std::vector<std::string> names;
  for (size_t c = 0; c < width; ++c) {
    if (label_col >= 0 && c == static_cast<size_t>(label_col)) continue;
    names.push_back(c < header.size() ? std::move(header[c])
                                      : StrFormat("c%zu", c));
  }
  if (categorical != nullptr) {
    EncodeCategorical(text, options, spans, is_categorical, columns, missing,
                      categorical);
  }
  Dataset ds = Dataset::FromColumns(rows, std::move(columns),
                                    std::move(missing), std::move(names));
  if (label_col >= 0) ds.SetLabels(std::move(labels));
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("data.csv_loads").Add(1);
  registry.GetCounter("data.csv_rows").Add(ds.num_rows());
  if (categorical != nullptr) {
    registry.GetCounter("data.columns_encoded").Add(categorical->size());
  }
  return ds;
}

}  // namespace

Result<Dataset> ReadCsvString(const std::string& text,
                              const CsvReadOptions& options) {
  return ScanCsv(text, options, nullptr);
}

Result<Dataset> ReadCsv(const std::string& path,
                        const CsvReadOptions& options) {
  Result<std::string> text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  return ScanCsv(text.value(), options, nullptr);
}

Result<EncodedDataset> ReadCsvEncodedString(const std::string& text,
                                            const CsvReadOptions& options) {
  EncodedDataset out;
  Result<Dataset> data = ScanCsv(text, options, &out.categorical);
  if (!data.ok()) return data.status();
  out.data = std::move(data.value());
  return out;
}

Result<EncodedDataset> ReadCsvEncoded(const std::string& path,
                                      const CsvReadOptions& options) {
  Result<std::string> text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  return ReadCsvEncodedString(text.value(), options);
}

std::string WriteCsvString(const Dataset& data,
                           const CsvWriteOptions& options) {
  std::string out;
  const bool labels = options.write_labels && data.has_labels();
  if (options.write_header) {
    for (size_t c = 0; c < data.num_cols(); ++c) {
      if (c > 0) out.push_back(options.delimiter);
      out += data.ColumnName(c);
    }
    if (labels) {
      if (data.num_cols() > 0) out.push_back(options.delimiter);
      out += "label";
    }
    out.push_back('\n');
  }
  for (size_t r = 0; r < data.num_rows(); ++r) {
    for (size_t c = 0; c < data.num_cols(); ++c) {
      if (c > 0) out.push_back(options.delimiter);
      if (data.IsMissing(r, c)) {
        out += options.missing_token;
      } else {
        out += StrFormat("%.17g", data.Get(r, c));
      }
    }
    if (labels) {
      if (data.num_cols() > 0) out.push_back(options.delimiter);
      out += StrFormat("%d", data.Label(r));
    }
    out.push_back('\n');
  }
  return out;
}

Status WriteCsv(const Dataset& data, const std::string& path,
                const CsvWriteOptions& options) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::IoError("cannot open for writing: " + path);
  }
  out << WriteCsvString(data, options);
  out.flush();
  if (!out) {
    return Status::IoError("write failure: " + path);
  }
  return Status::Ok();
}

}  // namespace hido
