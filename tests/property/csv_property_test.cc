// CSV reader properties. Round trip: for randomized datasets (shape, missing
// cells, labels), Write -> Read reproduces the dataset exactly (values via
// %.17g, masks, names, labels). Differential: the strict reader and the
// categorical-encoding reader agree bit for bit on numeric text, and the
// encoder matches a naive reference on mixed text. Robustness: damaged
// text parses or fails with a "csv:" error in both readers.

#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "data/csv.h"
#include "data/encoding.h"
#include "data/generators/synthetic.h"

namespace hido {
namespace {

// (rows, cols, missing_permille, with_labels, seed)
using CsvCase = std::tuple<size_t, size_t, size_t, bool, uint64_t>;

class CsvRoundTripProperty : public ::testing::TestWithParam<CsvCase> {};

TEST_P(CsvRoundTripProperty, WriteReadIsIdentity) {
  const auto [rows, cols, missing_permille, with_labels, seed] = GetParam();
  Rng rng(seed);
  Dataset original(cols);
  for (size_t c = 0; c < cols; ++c) {
    original.SetColumnName(c, "col_" + std::to_string(c));
  }
  std::vector<double> row(cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      // Adversarial values: scales, negatives, many digits.
      const double magnitude = std::pow(10.0, rng.UniformInt(-8, 8));
      row[c] = (rng.Bernoulli(0.5) ? 1 : -1) * rng.UniformDouble() *
               magnitude;
      if (rng.Bernoulli(static_cast<double>(missing_permille) / 1000.0)) {
        row[c] = std::numeric_limits<double>::quiet_NaN();
      }
    }
    original.AppendRow(row);
  }
  if (with_labels) {
    std::vector<int32_t> labels(rows);
    for (int32_t& label : labels) {
      label = static_cast<int32_t>(rng.UniformInt(-5, 20));
    }
    original.SetLabels(std::move(labels));
  }

  CsvReadOptions ropts;
  if (with_labels) ropts.label_column = static_cast<int>(cols);
  const Result<Dataset> restored =
      ReadCsvString(WriteCsvString(original), ropts);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const Dataset& back = restored.value();

  ASSERT_EQ(back.num_rows(), rows);
  ASSERT_EQ(back.num_cols(), cols);
  for (size_t c = 0; c < cols; ++c) {
    EXPECT_EQ(back.ColumnName(c), original.ColumnName(c));
  }
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      ASSERT_EQ(back.IsMissing(r, c), original.IsMissing(r, c))
          << r << "," << c;
      if (!original.IsMissing(r, c)) {
        EXPECT_EQ(back.Get(r, c), original.Get(r, c)) << r << "," << c;
      }
    }
    if (with_labels) {
      EXPECT_EQ(back.Label(r), original.Label(r));
    }
  }
}

// Structural equality down to the bits: names, shape, missing masks,
// values (memcmp, so even the NaN payload of missing cells must agree) and
// labels.
void ExpectSameDataset(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_cols(), b.num_cols());
  EXPECT_EQ(a.labels(), b.labels());
  for (size_t c = 0; c < a.num_cols(); ++c) {
    EXPECT_EQ(a.ColumnName(c), b.ColumnName(c));
    ASSERT_EQ(a.Column(c).size(), b.Column(c).size());
    EXPECT_EQ(std::memcmp(a.Column(c).data(), b.Column(c).data(),
                          a.Column(c).size() * sizeof(double)),
              0)
        << "column " << c;
    for (size_t r = 0; r < a.num_rows(); ++r) {
      ASSERT_EQ(a.IsMissing(r, c), b.IsMissing(r, c)) << r << "," << c;
    }
  }
}

void ExpectCleanCsvError(const Status& status) {
  EXPECT_TRUE(status.code() == StatusCode::kParseError ||
              status.code() == StatusCode::kInvalidArgument)
      << status.ToString();
  EXPECT_EQ(status.message().rfind("csv:", 0), 0u)
      << "error lacks csv context: " << status.ToString();
}

// Differential property: on all-numeric text (the round-trip writer's
// output), the strict reader and the categorical-encoding reader return the
// same Dataset bit for bit.
TEST_P(CsvRoundTripProperty, EncodedReaderMatchesStrictReader) {
  const auto [rows, cols, missing_permille, with_labels, seed] = GetParam();
  Rng rng(seed);
  Dataset original(cols);
  std::vector<double> row(cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      const double magnitude = std::pow(10.0, rng.UniformInt(-8, 8));
      row[c] = rng.Bernoulli(static_cast<double>(missing_permille) / 1000.0)
                   ? std::numeric_limits<double>::quiet_NaN()
                   : rng.UniformDouble() * magnitude;
    }
    original.AppendRow(row);
  }
  if (with_labels) {
    std::vector<int32_t> labels(rows);
    for (int32_t& label : labels) {
      label = static_cast<int32_t>(rng.UniformInt(-5, 20));
    }
    original.SetLabels(std::move(labels));
  }
  for (const bool header : {true, false}) {
    CsvWriteOptions wopts;
    wopts.write_header = header;
    CsvReadOptions ropts;
    ropts.has_header = header;
    if (with_labels) ropts.label_column = static_cast<int>(cols);
    const std::string text = WriteCsvString(original, wopts);
    const Result<Dataset> strict = ReadCsvString(text, ropts);
    const Result<EncodedDataset> encoded = ReadCsvEncodedString(text, ropts);
    ASSERT_TRUE(strict.ok()) << strict.status().ToString();
    ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
    EXPECT_TRUE(encoded.value().categorical.empty());
    ExpectSameDataset(strict.value(), encoded.value().data);
  }
}

// The categorical encoder against the algorithm it replaced, kept here as an
// oracle: split into line strings, split into trimmed field strings, classify
// each column in its own pass, build std::set dictionaries, then append row
// by row.
EncodedDataset NaiveEncode(const std::string& text, int label_col) {
  std::vector<std::string> lines = Split(text, '\n');
  for (std::string& line : lines) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
  }
  if (!lines.empty() && lines.back().empty()) lines.pop_back();
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
  for (const std::string& line : lines) {
    if (Trim(line).empty()) continue;
    std::vector<std::string> fields = Split(line, ',');
    for (std::string& f : fields) f = std::string(Trim(f));
    if (header.empty()) {
      header = std::move(fields);
    } else {
      rows.push_back(std::move(fields));
    }
  }
  const size_t width = header.size();
  auto is_label = [&](size_t c) {
    return label_col >= 0 && c == static_cast<size_t>(label_col);
  };
  std::vector<bool> categorical(width, false);
  std::vector<std::map<std::string, uint32_t>> dictionaries(width);
  for (size_t c = 0; c < width; ++c) {
    if (is_label(c)) continue;
    std::set<std::string> distinct;
    for (const auto& r : rows) {
      if (IsMissingToken(r[c])) continue;
      distinct.insert(r[c]);
      if (!ParseDouble(r[c]).ok()) categorical[c] = true;
    }
    uint32_t code = 0;
    for (const std::string& value : distinct) dictionaries[c][value] = code++;
  }
  EncodedDataset out;
  std::vector<std::string> names;
  for (size_t c = 0; c < width; ++c) {
    if (!is_label(c)) names.push_back(header[c]);
  }
  out.data = Dataset(std::move(names));
  std::vector<int32_t> labels;
  for (const auto& r : rows) {
    std::vector<double> values;
    for (size_t c = 0; c < width; ++c) {
      if (is_label(c)) {
        labels.push_back(static_cast<int32_t>(ParseInt(r[c]).value()));
      } else if (IsMissingToken(r[c])) {
        values.push_back(std::numeric_limits<double>::quiet_NaN());
      } else if (categorical[c]) {
        values.push_back(dictionaries[c].at(r[c]));
      } else {
        values.push_back(ParseDouble(r[c]).value());
      }
    }
    out.data.AppendRow(values);
  }
  if (label_col >= 0) out.data.SetLabels(std::move(labels));
  for (size_t c = 0, out_col = 0; c < width; ++c) {
    if (is_label(c)) continue;
    if (categorical[c]) {
      CategoricalMapping mapping;
      mapping.column = out_col;
      for (const auto& entry : dictionaries[c]) {
        mapping.values.push_back(entry.first);
      }
      out.categorical.push_back(std::move(mapping));
    }
    ++out_col;
  }
  return out;
}

// Random mixed-type text: numeric, categorical and mostly-numeric columns,
// missing tokens, padding, blank lines, CRLF endings and an optional label
// column. Every fourth seed makes every column categorical.
class CsvCategoricalProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsvCategoricalProperty, EncoderMatchesNaiveReference) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  const size_t width = 1 + rng.UniformIndex(6);
  const size_t rows = 1 + rng.UniformIndex(60);
  const int label_col = (width > 1 && rng.Bernoulli(0.5))
                            ? static_cast<int>(rng.UniformIndex(width))
                            : -1;
  const bool all_categorical = seed % 4 == 0;
  // 0 numeric, 1 categorical, 2 numeric with rare words.
  std::vector<size_t> kind(width);
  for (size_t& k : kind) k = all_categorical ? 1 : rng.UniformIndex(3);
  const std::vector<std::string> words = {"red", "blue", "Green", "x y", "1",
                                          "2.5", "-", "+", "\xc3\xa9", "1e999",
                                          "inf", "0x10"};
  const std::vector<std::string> missing = {"", "?", "NA", "nan", "Null"};
  const std::string eol = rng.Bernoulli(0.3) ? "\r\n" : "\n";
  std::string text;
  for (size_t c = 0; c < width; ++c) {
    if (c > 0) text += ",";
    text += "h" + std::to_string(c);
  }
  text += eol;
  for (size_t r = 0; r < rows; ++r) {
    if (rng.Bernoulli(0.1)) text += eol;  // blank line
    for (size_t c = 0; c < width; ++c) {
      if (c > 0) text += ",";
      std::string field;
      if (static_cast<int>(c) == label_col) {
        field = std::to_string(rng.UniformInt(-3, 3));
      } else if (rng.Bernoulli(0.1)) {
        field = missing[rng.UniformIndex(missing.size())];
      } else if (kind[c] == 1 || (kind[c] == 2 && rng.Bernoulli(0.05))) {
        field = words[rng.UniformIndex(words.size())];
      } else {
        field = StrFormat("%.6g", (rng.UniformDouble() - 0.5) *
                                      std::pow(10.0, rng.UniformInt(-3, 3)));
      }
      if (rng.Bernoulli(0.1)) field = " " + field + "\t";
      text += field;
    }
    text += eol;
  }
  CsvReadOptions opts;
  opts.label_column = label_col;
  const Result<EncodedDataset> got = ReadCsvEncodedString(text, opts);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const EncodedDataset want = NaiveEncode(text, label_col);
  ExpectSameDataset(got.value().data, want.data);
  ASSERT_EQ(got.value().categorical.size(), want.categorical.size());
  for (size_t i = 0; i < want.categorical.size(); ++i) {
    EXPECT_EQ(got.value().categorical[i].column, want.categorical[i].column);
    EXPECT_EQ(got.value().categorical[i].values, want.categorical[i].values);
  }
  if (all_categorical) {
    EXPECT_EQ(got.value().categorical.size(),
              got.value().data.num_cols());
  }
}

INSTANTIATE_TEST_SUITE_P(MixedCsv, CsvCategoricalProperty,
                         ::testing::Range<uint64_t>(1, 41));

// Robustness property: start from a valid CSV, hit it with random byte-level
// damage (truncation, NUL injection, garbage bytes, delimiter insertion,
// chunk duplication, giant fields), and the reader must either parse it —
// ragged damage can cancel out — or return a structured "csv:" parse error;
// it must never crash or hang. Successful parses must stay within the
// structural caps.
class CsvMutationProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsvMutationProperty, MutatedInputFailsCleanlyOrParses) {
  Rng rng(GetParam());
  // A valid starting point, regenerated per seed.
  std::string text = "alpha,beta,gamma\n";
  const size_t rows = 3 + rng.UniformIndex(20);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      if (c > 0) text.push_back(',');
      text += std::to_string(rng.UniformInt(-1000, 1000));
    }
    text.push_back('\n');
  }

  const size_t mutations = 1 + rng.UniformIndex(4);
  for (size_t m = 0; m < mutations && !text.empty(); ++m) {
    const size_t pos = rng.UniformIndex(text.size());
    switch (rng.UniformIndex(6)) {
      case 0:  // truncate
        text.resize(pos);
        break;
      case 1:  // inject a NUL byte
        text.insert(text.begin() + static_cast<ptrdiff_t>(pos), '\0');
        break;
      case 2:  // overwrite with a random byte (possibly non-ASCII)
        text[pos] = static_cast<char>(rng.UniformIndex(256));
        break;
      case 3:  // extra delimiter (ragged row)
        text.insert(text.begin() + static_cast<ptrdiff_t>(pos), ',');
        break;
      case 4: {  // duplicate a chunk
        const size_t len = std::min<size_t>(text.size() - pos,
                                            1 + rng.UniformIndex(32));
        text.insert(pos, text.substr(pos, len));
        break;
      }
      case 5:  // splice in an oversized field
        text.insert(pos, std::string(5000, 'x'));
        break;
    }
  }

  // Both readers: the strict one and the categorical-encoding default.
  CsvReadOptions opts;
  const Result<Dataset> r = ReadCsvString(text, opts);
  if (!r.ok()) {
    ExpectCleanCsvError(r.status());
  } else {
    EXPECT_LE(r.value().num_cols(), opts.max_columns);
  }
  const Result<EncodedDataset> e = ReadCsvEncodedString(text, opts);
  if (!e.ok()) {
    ExpectCleanCsvError(e.status());
    return;
  }
  const Dataset& data = e.value().data;
  EXPECT_LE(data.num_cols(), opts.max_columns);
  for (const CategoricalMapping& mapping : e.value().categorical) {
    ASSERT_LT(mapping.column, data.num_cols());
    for (size_t row = 0; row < data.num_rows(); ++row) {
      if (data.IsMissing(row, mapping.column)) continue;
      EXPECT_LT(data.Get(row, mapping.column),
                static_cast<double>(mapping.values.size()));
    }
  }
  // Whatever the strict reader accepts, the encoder reads identically.
  if (r.ok()) {
    EXPECT_TRUE(e.value().categorical.empty());
    ExpectSameDataset(r.value(), data);
  }
}

INSTANTIATE_TEST_SUITE_P(MutatedCsv, CsvMutationProperty,
                         ::testing::Range<uint64_t>(1, 81));

INSTANTIATE_TEST_SUITE_P(
    RandomDatasets, CsvRoundTripProperty,
    ::testing::Values(CsvCase{1, 1, 0, false, 1},
                      CsvCase{50, 3, 0, false, 2},
                      CsvCase{30, 5, 100, false, 3},
                      CsvCase{40, 2, 300, true, 4},
                      CsvCase{100, 8, 50, true, 5},
                      CsvCase{7, 12, 0, true, 6}),
    [](const ::testing::TestParamInfo<CsvCase>& info) {
      return "r" + std::to_string(std::get<0>(info.param)) + "_c" +
             std::to_string(std::get<1>(info.param)) + "_m" +
             std::to_string(std::get<2>(info.param)) +
             (std::get<3>(info.param) ? "_lab" : "_nolab") + "_s" +
             std::to_string(std::get<4>(info.param));
    });

}  // namespace
}  // namespace hido
