// Tests for the shared string helpers.

#include "efes/common/string_util.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

namespace efes {
namespace {

TEST(SplitTest, BasicSplit) {
  EXPECT_EQ(Split("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, KeepsEmptyPieces) {
  EXPECT_EQ(Split(",a,", ','), (std::vector<std::string>{"", "a", ""}));
}

TEST(SplitTest, NoDelimiterYieldsWholeInput) {
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"solo"}, ", "), "solo");
}

TEST(TrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("inner space kept"), "inner space kept");
}

TEST(ToLowerTest, LowersAscii) {
  EXPECT_EQ(ToLower("MiXeD123"), "mixed123");
}

TEST(PrefixSuffixTest, StartsAndEnds) {
  EXPECT_TRUE(StartsWith("prefix_rest", "prefix"));
  EXPECT_FALSE(StartsWith("pre", "prefix"));
  EXPECT_TRUE(EndsWith("file.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", ".csv"));
}

TEST(ParseInt64Test, ParsesValidIntegers) {
  EXPECT_EQ(ParseInt64("42"), 42);
  EXPECT_EQ(ParseInt64("-17"), -17);
  EXPECT_EQ(ParseInt64("  99  "), 99);
}

TEST(ParseInt64Test, RejectsGarbage) {
  EXPECT_FALSE(ParseInt64("").has_value());
  EXPECT_FALSE(ParseInt64("12abc").has_value());
  EXPECT_FALSE(ParseInt64("1.5").has_value());
  EXPECT_FALSE(ParseInt64("'98").has_value());
  EXPECT_FALSE(ParseInt64("999999999999999999999999").has_value());
}

TEST(ParseDoubleTest, ParsesValidDoubles) {
  EXPECT_DOUBLE_EQ(*ParseDouble("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("-2e3"), -2000.0);
  EXPECT_DOUBLE_EQ(*ParseDouble("7"), 7.0);
}

TEST(ParseDoubleTest, RejectsGarbage) {
  EXPECT_FALSE(ParseDouble("").has_value());
  EXPECT_FALSE(ParseDouble("1.5x").has_value());
  EXPECT_FALSE(ParseDouble("12--34").has_value());
}

TEST(ParseNumberTest, WhitespaceOnlyIsNotANumber) {
  for (const char* text : {" ", "\t", "  \n\r\v\f ", "\t \t"}) {
    EXPECT_FALSE(ParseInt64(text).has_value()) << '"' << text << '"';
    EXPECT_FALSE(ParseDouble(text).has_value()) << '"' << text << '"';
  }
}

TEST(ParseNumberTest, KeepsStrtodAndStrtollEdgeCases) {
  // Signs, hex and overflow follow strtoll (base 10) / strtod exactly.
  EXPECT_EQ(ParseInt64("+5"), 5);
  EXPECT_EQ(*ParseDouble("+5"), 5.0);
  EXPECT_EQ(ParseInt64("-0"), 0);
  ASSERT_TRUE(ParseDouble("-0").has_value());
  EXPECT_TRUE(std::signbit(*ParseDouble("-0")));
  EXPECT_FALSE(std::signbit(*ParseDouble("0")));
  EXPECT_FALSE(ParseInt64("0x1A").has_value());
  EXPECT_EQ(*ParseDouble("0x1A"), 26.0);
  EXPECT_EQ(ParseInt64(" 7 "), 7);
  EXPECT_EQ(*ParseDouble("\t7\n"), 7.0);
  EXPECT_EQ(ParseInt64("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(ParseInt64("-9223372036854775808"), INT64_MIN);
  EXPECT_FALSE(ParseInt64("9223372036854775808").has_value());
  EXPECT_FALSE(ParseDouble("1e400").has_value());
  EXPECT_FALSE(ParseDouble("-1e400").has_value());
  EXPECT_FALSE(ParseDouble("1e-400").has_value());
  EXPECT_EQ(*ParseDouble("9007199254740993"), 9007199254740992.0);
  EXPECT_FALSE(ParseInt64("5 5").has_value());
  EXPECT_FALSE(ParseDouble("5 5").has_value());
  EXPECT_FALSE(ParseInt64("+").has_value());
  EXPECT_FALSE(ParseDouble("-").has_value());
}

TEST(ParseNumberTest, InputsLongerThanAShortBufferParseWhole) {
  // Hundreds of significant characters: past any small fixed buffer.
  const std::string zeros(300, '0');
  EXPECT_EQ(ParseInt64(zeros + "42"), 42);
  EXPECT_EQ(*ParseDouble(zeros + "42"), 42.0);
  EXPECT_EQ(ParseInt64("  -" + zeros + "7  "), -7);
  EXPECT_EQ(*ParseDouble("1" + std::string(200, '0')), 1e200);
  EXPECT_FALSE(ParseInt64("1" + std::string(200, '0')).has_value());
  EXPECT_FALSE(ParseDouble("1" + std::string(400, '0')).has_value());
  EXPECT_EQ(*ParseDouble("0." + zeros + "5e301"), 5e0);
  // Garbage at the very end of a long input is still rejected.
  EXPECT_FALSE(ParseInt64(zeros + "1x").has_value());
  EXPECT_FALSE(ParseDouble(zeros + "1.5x").has_value());
  // Long runs of surrounding whitespace are trimmed, not parsed.
  const std::string pad(100, ' ');
  EXPECT_EQ(ParseInt64(pad + "12" + pad), 12);
  EXPECT_EQ(*ParseDouble(pad + "1.25" + pad), 1.25);
}

TEST(ParseNumberTest, MatchesStrtodAndStrtollOnRandomNumericText) {
  // Random strings over a numeric alphabet, short and long, against a
  // direct strtoll/strtod reference on a NUL-terminated copy.
  const char kAlphabet[] = "0123456789012345678901234567890+-.eEx ";
  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int i = 0; i < 200000; ++i) {
    const size_t length = next() % (i % 50 == 0 ? 90 : 24);
    std::string text;
    for (size_t j = 0; j < length; ++j) {
      text.push_back(kAlphabet[next() % (sizeof(kAlphabet) - 1)]);
    }
    const std::string trimmed(Trim(text));

    std::optional<int64_t> want_int;
    std::optional<double> want_double;
    if (!trimmed.empty()) {
      char* end = nullptr;
      errno = 0;
      long long integer = std::strtoll(trimmed.c_str(), &end, 10);
      if (errno != ERANGE && end == trimmed.c_str() + trimmed.size()) {
        want_int = integer;
      }
      errno = 0;
      double real = std::strtod(trimmed.c_str(), &end);
      if (errno != ERANGE && end == trimmed.c_str() + trimmed.size()) {
        want_double = real;
      }
    }
    ASSERT_EQ(ParseInt64(text), want_int) << '"' << text << '"';
    const std::optional<double> got = ParseDouble(text);
    ASSERT_EQ(got.has_value(), want_double.has_value()) << '"' << text << '"';
    if (got.has_value()) {
      // Bit equality: -0 stays -0.
      ASSERT_EQ(std::memcmp(&*got, &*want_double, sizeof(double)), 0)
          << '"' << text << '"';
    }
  }
}

TEST(FormatDoubleTest, FormatsCompactly) {
  EXPECT_EQ(FormatDouble(3.0), "3");
  EXPECT_EQ(FormatDouble(2.5), "2.5");
}

TEST(EditDistanceTest, KnownDistances) {
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("abc", "abc"), 0u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  EXPECT_EQ(EditDistance("", "xyz"), 3u);
}

TEST(EditDistanceTest, Symmetric) {
  EXPECT_EQ(EditDistance("flaw", "lawn"), EditDistance("lawn", "flaw"));
}

TEST(NameSimilarityTest, IdenticalIsOne) {
  EXPECT_DOUBLE_EQ(NameSimilarity("title", "title"), 1.0);
  EXPECT_DOUBLE_EQ(NameSimilarity("", ""), 1.0);
}

TEST(NameSimilarityTest, CaseInsensitive) {
  EXPECT_DOUBLE_EQ(NameSimilarity("Title", "title"), 1.0);
}

TEST(NameSimilarityTest, DisjointIsLow) {
  EXPECT_LT(NameSimilarity("abc", "xyz"), 0.01);
}

TEST(TokenizeIdentifierTest, SplitsSeparatorsAndCamelCase) {
  EXPECT_EQ(TokenizeIdentifier("artist_list"),
            (std::vector<std::string>{"artist", "list"}));
  EXPECT_EQ(TokenizeIdentifier("artistList"),
            (std::vector<std::string>{"artist", "list"}));
  EXPECT_EQ(TokenizeIdentifier("release-group.id"),
            (std::vector<std::string>{"release", "group", "id"}));
}

TEST(TokenJaccardTest, OverlapScores) {
  EXPECT_DOUBLE_EQ(TokenJaccard("artist_list", "list_artist"), 1.0);
  EXPECT_DOUBLE_EQ(TokenJaccard("artist_list", "artist_name"), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(TokenJaccard("abc", "xyz"), 0.0);
}

}  // namespace
}  // namespace efes
