#include "common/string_util.h"

#include <gtest/gtest.h>

#include <limits>

namespace hido {
namespace {

TEST(SplitTest, BasicFields) {
  EXPECT_EQ(Split("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, EmptyFieldsPreserved) {
  EXPECT_EQ(Split(",a,,b,", ','),
            (std::vector<std::string>{"", "a", "", "b", ""}));
}

TEST(SplitTest, EmptyInputIsOneEmptyField) {
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(SplitTest, NoDelimiter) {
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(SplitViewsTest, MatchesSplit) {
  std::vector<std::string_view> views{"stale"};
  for (const char* text : {"a,b,c", ",a,,b,", "", "abc"}) {
    SplitViews(text, ',', &views);
    const std::vector<std::string> copies = Split(text, ',');
    ASSERT_EQ(views.size(), copies.size()) << text;
    for (size_t i = 0; i < views.size(); ++i) {
      EXPECT_EQ(views[i], copies[i]) << text;
    }
  }
}

TEST(SplitViewsTest, ViewsPointIntoTheInput) {
  const std::string text = "xy;z";
  std::vector<std::string_view> views;
  SplitViews(text, ';', &views);
  ASSERT_EQ(views.size(), 2u);
  EXPECT_EQ(views[0].data(), text.data());
  EXPECT_EQ(views[1].data(), text.data() + 3);
}

TEST(TrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim("\t\r\nabc\n"), "abc");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("solid"), "solid");
}

TEST(JoinTest, Basic) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(ParseDoubleTest, ValidInputs) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.25").value(), 3.25);
  EXPECT_DOUBLE_EQ(ParseDouble("  -1e3 ").value(), -1000.0);
  EXPECT_DOUBLE_EQ(ParseDouble("0").value(), 0.0);
}

TEST(ParseDoubleTest, InvalidInputs) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.5x").ok());
  EXPECT_FALSE(ParseDouble("inf").ok());  // non-finite rejected
  EXPECT_FALSE(ParseDouble("nan").ok());
}

TEST(ParseDoubleTest, TrailingJunkRejected) {
  const Result<double> r = ParseDouble("1.5abc");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("not a number"), std::string::npos)
      << r.status().ToString();
}

TEST(ParseDoubleTest, OverflowIsARangeErrorNotSaturation) {
  // strtod saturated these to +-HUGE_VAL with errno == ERANGE; the parse
  // must reject them with a distinct out-of-range message instead.
  for (const char* text : {"1e999", "-1e999", "1e99999"}) {
    const Result<double> r = ParseDouble(text);
    ASSERT_FALSE(r.ok()) << text;
    EXPECT_NE(r.status().message().find("out of range"), std::string::npos)
        << r.status().ToString();
  }
}

TEST(ParseDoubleTest, LocaleIndependentDecimalPoint) {
  // '.' must be the decimal point no matter what LC_NUMERIC says, and a
  // locale's ',' separator must never be accepted. (from_chars guarantees
  // the "C" locale; this pins the contract even if the host set another.)
  EXPECT_DOUBLE_EQ(ParseDouble("1.5").value(), 1.5);
  EXPECT_FALSE(ParseDouble("1,5").ok());
}

TEST(ParseDoubleTest, ExplicitPlusSign) {
  EXPECT_DOUBLE_EQ(ParseDouble("+2.5").value(), 2.5);
  EXPECT_FALSE(ParseDouble("+").ok());
  EXPECT_FALSE(ParseDouble("+-1.5").ok());
  EXPECT_FALSE(ParseDouble("++1").ok());
}

TEST(ParseIntTest, ValidAndInvalid) {
  EXPECT_EQ(ParseInt("42").value(), 42);
  EXPECT_EQ(ParseInt(" -7 ").value(), -7);
  EXPECT_EQ(ParseInt("+7").value(), 7);
  EXPECT_FALSE(ParseInt("").ok());
  EXPECT_FALSE(ParseInt("4.5").ok());
  EXPECT_FALSE(ParseInt("x").ok());
  EXPECT_FALSE(ParseInt("+-7").ok());
}

TEST(ParseIntTest, OverflowIsARangeErrorNotSaturation) {
  EXPECT_EQ(ParseInt("9223372036854775807").value(),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(ParseInt("-9223372036854775808").value(),
            std::numeric_limits<int64_t>::min());
  // strtoll saturated these to LLONG_MAX/LLONG_MIN with ERANGE.
  for (const char* text :
       {"9223372036854775808", "-9223372036854775809", "1e999"}) {
    EXPECT_FALSE(ParseInt(text).ok()) << text;
  }
}

TEST(ParseUIntTest, ValidAndInvalid) {
  EXPECT_EQ(ParseUInt("42").value(), 42u);
  EXPECT_EQ(ParseUInt(" 7 ").value(), 7u);
  EXPECT_EQ(ParseUInt("+7").value(), 7u);
  EXPECT_EQ(ParseUInt("0").value(), 0u);
  EXPECT_FALSE(ParseUInt("").ok());
  EXPECT_FALSE(ParseUInt("-1").ok());
  EXPECT_FALSE(ParseUInt("4.5").ok());
  EXPECT_FALSE(ParseUInt("x").ok());
  EXPECT_FALSE(ParseUInt("+-7").ok());
}

TEST(ParseUIntTest, FullUint64RangeParses) {
  // The reason ParseUInt exists: RNG-derived seeds above INT64_MAX, which
  // ParseInt rejects as out of range.
  EXPECT_EQ(ParseUInt("18446744073709551615").value(),
            std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(ParseUInt("9223372036854775808").value(),
            uint64_t{9223372036854775808u});
  EXPECT_FALSE(ParseInt("9223372036854775808").ok());
  EXPECT_FALSE(ParseUInt("18446744073709551616").ok());  // 2^64
}

TEST(IsMissingTokenTest, RecognizedSpellings) {
  EXPECT_TRUE(IsMissingToken(""));
  EXPECT_TRUE(IsMissingToken("?"));
  EXPECT_TRUE(IsMissingToken(" NA "));
  EXPECT_TRUE(IsMissingToken("NaN"));
  EXPECT_TRUE(IsMissingToken("null"));
  EXPECT_FALSE(IsMissingToken("0"));
  EXPECT_FALSE(IsMissingToken("n/a"));
}

TEST(IsMissingTokenTest, CaseInsensitiveWholeTokenOnly) {
  for (const char* token : {"na", "nA", "Na", "NAN", "nAn", "NULL", "NuLl",
                            "\tnull\r", " ? "}) {
    EXPECT_TRUE(IsMissingToken(token)) << token;
  }
  for (const char* token : {"n", "nab", "nulls", "nul", "??", "na n", "-nan",
                            "1.5", "nanx", "none"}) {
    EXPECT_FALSE(IsMissingToken(token)) << token;
  }
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.0 / 3.0), "0.33");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StrFormatTest, LongOutput) {
  const std::string long_str(500, 'a');
  EXPECT_EQ(StrFormat("%s", long_str.c_str()).size(), 500u);
}

}  // namespace
}  // namespace hido
