#include "data/encoding.h"

#include <string>

#include <gtest/gtest.h>

#include "common/run_control.h"
#include "common/status.h"

namespace hido {
namespace {

TEST(EncodingTest, NumericColumnsPassThrough) {
  const Result<EncodedDataset> r =
      ReadCsvEncodedString("a,b\n1.5,2\n3,4\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().categorical.empty());
  EXPECT_DOUBLE_EQ(r.value().data.Get(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(r.value().data.Get(1, 1), 4.0);
}

TEST(EncodingTest, CategoricalColumnOrdinalEncoded) {
  const Result<EncodedDataset> r =
      ReadCsvEncodedString("color,x\nred,1\nblue,2\ngreen,3\nred,4\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const EncodedDataset& encoded = r.value();
  ASSERT_EQ(encoded.categorical.size(), 1u);
  EXPECT_EQ(encoded.categorical[0].column, 0u);
  // Sorted distinct values: blue=0, green=1, red=2.
  EXPECT_EQ(encoded.categorical[0].values,
            (std::vector<std::string>{"blue", "green", "red"}));
  EXPECT_DOUBLE_EQ(encoded.data.Get(0, 0), 2.0);  // red
  EXPECT_DOUBLE_EQ(encoded.data.Get(1, 0), 0.0);  // blue
  EXPECT_DOUBLE_EQ(encoded.data.Get(2, 0), 1.0);  // green
  EXPECT_DOUBLE_EQ(encoded.data.Get(3, 0), 2.0);  // red
}

TEST(EncodingTest, DecodeRoundTrip) {
  const Result<EncodedDataset> r =
      ReadCsvEncodedString("kind\ncat\ndog\ncat\n");
  ASSERT_TRUE(r.ok());
  const EncodedDataset& encoded = r.value();
  EXPECT_EQ(encoded.Decode(0, encoded.data.Get(0, 0)), "cat");
  EXPECT_EQ(encoded.Decode(0, encoded.data.Get(1, 0)), "dog");
  EXPECT_EQ(encoded.Decode(0, 99.0), "");   // out of range
  EXPECT_EQ(encoded.Decode(5, 0.0), "");    // not categorical
}

TEST(EncodingTest, MixedNumericLooking) {
  // A column with one non-numeric value is entirely categorical.
  const Result<EncodedDataset> r =
      ReadCsvEncodedString("v\n1\n2\nx\n1\n");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().categorical.size(), 1u);
  // Sorted distinct: "1"=0, "2"=1, "x"=2.
  EXPECT_DOUBLE_EQ(r.value().data.Get(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(r.value().data.Get(2, 0), 2.0);
}

TEST(EncodingTest, MissingStaysMissingInBothKinds) {
  const Result<EncodedDataset> r =
      ReadCsvEncodedString("cat,num\nred,?\n?,2\nblue,3\n");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().data.IsMissing(0, 1));
  EXPECT_TRUE(r.value().data.IsMissing(1, 0));
  EXPECT_DOUBLE_EQ(r.value().data.Get(2, 1), 3.0);
  // "?" is not a category value.
  EXPECT_EQ(r.value().categorical[0].values,
            (std::vector<std::string>{"blue", "red"}));
}

TEST(EncodingTest, LabelColumnExtracted) {
  CsvReadOptions opts;
  opts.label_column = 1;
  const Result<EncodedDataset> r =
      ReadCsvEncodedString("kind,class,x\na,7,1\nb,8,2\n", opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const EncodedDataset& encoded = r.value();
  EXPECT_EQ(encoded.data.num_cols(), 2u);
  EXPECT_EQ(encoded.data.Label(0), 7);
  // Mapping indices refer to the label-free dataset.
  ASSERT_EQ(encoded.categorical.size(), 1u);
  EXPECT_EQ(encoded.categorical[0].column, 0u);
  EXPECT_EQ(encoded.data.ColumnName(1), "x");
}

TEST(EncodingTest, NonIntegerLabelFails) {
  CsvReadOptions opts;
  opts.label_column = 0;
  const Result<EncodedDataset> r =
      ReadCsvEncodedString("class,x\nsick,1\n", opts);
  EXPECT_FALSE(r.ok());
}

TEST(EncodingTest, RaggedRowsFail) {
  const Result<EncodedDataset> r = ReadCsvEncodedString("a,b\n1,2\n3\n");
  EXPECT_FALSE(r.ok());
}

TEST(EncodingTest, EmbeddedNulFailsInsteadOfBecomingACategory) {
  // A NUL byte means binary input; the categorical fallback must reject it
  // with line/column context rather than ordinal-encoding the garbage.
  const Result<EncodedDataset> r =
      ReadCsvEncodedString(std::string("a,b\nred,2\nblu\x00 e,4\n", 18));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("column 1"), std::string::npos)
      << r.status().ToString();
}

TEST(EncodingTest, OversizedFieldFailsWithContext) {
  CsvReadOptions opts;
  opts.max_field_bytes = 8;
  const Result<EncodedDataset> r =
      ReadCsvEncodedString("a,b\nred," + std::string(9, 'x') + "\n", opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("column 2"), std::string::npos)
      << r.status().ToString();
}

TEST(EncodingTest, MissingFileFails) {
  EXPECT_FALSE(ReadCsvEncoded("/no/such/file.csv").ok());
}

TEST(EncodingTest, NoHeaderMode) {
  CsvReadOptions opts;
  opts.has_header = false;
  const Result<EncodedDataset> r = ReadCsvEncodedString("x,1\ny,2\n", opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().data.num_rows(), 2u);
  EXPECT_EQ(r.value().data.ColumnName(0), "c0");
  ASSERT_EQ(r.value().categorical.size(), 1u);
}

// Both readers run one scanner, so their errors and names must agree.
TEST(EncodingTest, BadLabelErrorNamesFileLineAndColumnInBothReaders) {
  CsvReadOptions opts;
  opts.label_column = 0;
  const std::string text = "class,x\n\n1,1\n2,2\nsick,3\n";
  const Status encoded = ReadCsvEncodedString(text, opts).status();
  const Status numeric = ReadCsvString(text, opts).status();
  for (const Status& status : {encoded, numeric}) {
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kParseError);
    EXPECT_NE(status.message().find("line 5 column 1"), std::string::npos)
        << status.ToString();
    EXPECT_NE(status.message().find("'sick'"), std::string::npos)
        << status.ToString();
  }
  EXPECT_EQ(encoded.message(), numeric.message());
}

TEST(EncodingTest, NoHeaderNamesAreFileColumnIndicesInBothReaders) {
  CsvReadOptions opts;
  opts.has_header = false;
  opts.label_column = 0;
  const std::string text = "1,5,6\n0,7,8\n";
  const Result<EncodedDataset> encoded = ReadCsvEncodedString(text, opts);
  const Result<Dataset> numeric = ReadCsvString(text, opts);
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
  ASSERT_TRUE(numeric.ok()) << numeric.status().ToString();
  for (const Dataset* ds : {&encoded.value().data, &numeric.value()}) {
    ASSERT_EQ(ds->num_cols(), 2u);
    EXPECT_EQ(ds->ColumnName(0), "c1");
    EXPECT_EQ(ds->ColumnName(1), "c2");
    EXPECT_EQ(ds->FindColumn("c2"), 1u);
    EXPECT_EQ(ds->Label(1), 0);
  }
}

TEST(EncodingTest, StrictReaderRejectsWhatTheEncoderEncodes) {
  const std::string text = "a,b\n1,x\n2,y\n";
  const Result<Dataset> numeric = ReadCsvString(text);
  ASSERT_FALSE(numeric.ok());
  EXPECT_EQ(numeric.status().code(), StatusCode::kParseError);
  EXPECT_NE(numeric.status().message().find("line 2 column 2"),
            std::string::npos)
      << numeric.status().ToString();
  const Result<EncodedDataset> encoded = ReadCsvEncodedString(text);
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
  ASSERT_EQ(encoded.value().categorical.size(), 1u);
  EXPECT_EQ(encoded.value().categorical[0].column, 1u);
}

TEST(EncodingTest, CategoryValuesAreTrimmedAndCrlfStripped) {
  const Result<EncodedDataset> r =
      ReadCsvEncodedString("kind,v\r\n red ,1\r\nblue,2\r\nred\t,3\r\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().categorical.size(), 1u);
  EXPECT_EQ(r.value().categorical[0].values,
            (std::vector<std::string>{"blue", "red"}));
  EXPECT_DOUBLE_EQ(r.value().data.Get(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(r.value().data.Get(2, 0), 1.0);
  EXPECT_DOUBLE_EQ(r.value().data.Get(2, 1), 3.0);
}

TEST(EncodingTest, BlankLineAndMissingHeaderFailInBothReaders) {
  CsvReadOptions strict;
  strict.skip_blank_lines = false;
  const std::string blank = "a\n1\n\n2\n";
  for (const Status& status : {ReadCsvEncodedString(blank, strict).status(),
                               ReadCsvString(blank, strict).status()}) {
    EXPECT_EQ(status.code(), StatusCode::kParseError);
    EXPECT_NE(status.message().find("blank line 3"), std::string::npos)
        << status.ToString();
  }
  for (const Status& status : {ReadCsvEncodedString("\n\n").status(),
                               ReadCsvString("\n\n").status()}) {
    EXPECT_EQ(status.code(), StatusCode::kParseError);
    EXPECT_NE(status.message().find("missing header"), std::string::npos)
        << status.ToString();
  }
}

TEST(EncodingTest, StopTokenFailpointAbortsEncodedRead) {
  std::string text = "cat,v\n";
  for (int i = 0; i < 5000; ++i) text += "x,1\n";
  StopToken token;
  token.ArmFailpoint(2);
  CsvReadOptions opts;
  opts.stop = &token;
  const Result<EncodedDataset> r = ReadCsvEncodedString(text, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(token.cause(), StopCause::kFailpoint);
}

TEST(EncodingTest, UnfiredStopTokenEncodesNormally) {
  StopToken token;
  CsvReadOptions opts;
  opts.stop = &token;
  const Result<EncodedDataset> r = ReadCsvEncodedString("cat,v\nx,1\ny,2\n", opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().data.num_rows(), 2u);
  EXPECT_FALSE(token.stop_requested());
}

}  // namespace
}  // namespace hido
