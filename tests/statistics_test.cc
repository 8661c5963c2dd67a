// Tests for the Section 5.1 attribute statistics and the importance/fit
// scoring.

#include "efes/profiling/statistics.h"

#include <gtest/gtest.h>

#include <cmath>

#include "efes/common/parallel.h"
#include "efes/profiling/profiler.h"

namespace efes {
namespace {

std::vector<Value> Texts(const std::vector<std::string>& texts) {
  std::vector<Value> values;
  for (const std::string& text : texts) values.push_back(Value::Text(text));
  return values;
}

std::vector<Value> Integers(const std::vector<int64_t>& numbers) {
  std::vector<Value> values;
  for (int64_t n : numbers) values.push_back(Value::Integer(n));
  return values;
}

/// Content tests profile through the production chunked API; only the
/// dedicated wrapper tests below name the deprecated one-shot entry
/// points. ProfileColumn fails only under an unsatisfiable exact
/// --max-memory budget, which no test here configures.
AttributeStatistics Stats(const std::vector<Value>& column, DataType type) {
  auto result = ProfileColumn(column, type);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? *std::move(result) : AttributeStatistics{};
}

TEST(GeneralizeToPatternTest, PaperDurationExample) {
  EXPECT_EQ(GeneralizeToPattern("4:43"), "9:9");
  EXPECT_EQ(GeneralizeToPattern("215900"), "9");
  EXPECT_EQ(GeneralizeToPattern("Sweet Home"), "a a");
  EXPECT_EQ(GeneralizeToPattern("1998-01-02"), "9-9-9");
  EXPECT_EQ(GeneralizeToPattern("'98"), "'9");
  EXPECT_EQ(GeneralizeToPattern(""), "");
  EXPECT_EQ(GeneralizeToPattern("pp. 12--34"), "a. 9--9");
}

TEST(FillStatusTest, CountsNullsAndUncastables) {
  std::vector<Value> column = {Value::Text("42"), Value::Text("4:43"),
                               Value::Null()};
  AttributeStatistics stats = Stats(column, DataType::kInteger);
  EXPECT_EQ(stats.fill_status.total_count, 3u);
  EXPECT_EQ(stats.fill_status.null_count, 1u);
  EXPECT_EQ(stats.fill_status.uncastable_count, 1u);
  EXPECT_NEAR(stats.fill_status.FillFraction(), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(stats.fill_status.NonNullFraction(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(stats.fill_status.CastableFraction(), 0.5, 1e-12);
}

TEST(FillStatusTest, EmptyColumnIsFullyFilled) {
  AttributeStatistics stats = Stats({}, DataType::kText);
  EXPECT_DOUBLE_EQ(stats.fill_status.FillFraction(), 1.0);
  EXPECT_DOUBLE_EQ(stats.fill_status.CastableFraction(), 1.0);
}

TEST(ConstancyTest, SingleValueIsFullyConstant) {
  AttributeStatistics stats = Stats(
      Texts({"x", "x", "x", "x"}), DataType::kText);
  EXPECT_DOUBLE_EQ(stats.constancy.constancy, 1.0);
  EXPECT_EQ(stats.constancy.distinct_count, 1u);
}

TEST(ConstancyTest, AllDistinctIsZeroConstancy) {
  AttributeStatistics stats = Stats(
      Texts({"a", "b", "c", "d", "e", "f", "g", "h"}), DataType::kText);
  EXPECT_NEAR(stats.constancy.constancy, 0.0, 1e-9);
}

TEST(ConstancyTest, SkewIncreasesConstancy) {
  AttributeStatistics skewed = Stats(
      Texts({"a", "a", "a", "a", "a", "a", "b", "c"}), DataType::kText);
  AttributeStatistics uniform = Stats(
      Texts({"a", "a", "a", "b", "b", "b", "c", "c"}), DataType::kText);
  EXPECT_GT(skewed.constancy.constancy, uniform.constancy.constancy);
}

TEST(TextPatternTest, CollectsFrequentPatterns) {
  AttributeStatistics stats = Stats(
      Texts({"4:43", "6:55", "3:26", "hello"}), DataType::kText);
  ASSERT_TRUE(stats.text_pattern.has_value());
  ASSERT_FALSE(stats.text_pattern->patterns.empty());
  EXPECT_EQ(stats.text_pattern->patterns[0].first, "9:9");
  EXPECT_NEAR(stats.text_pattern->patterns[0].second, 0.75, 1e-12);
}

TEST(TextPatternTest, NotComputedForNumericTarget) {
  AttributeStatistics stats =
      Stats(Integers({1, 2, 3}), DataType::kInteger);
  EXPECT_FALSE(stats.text_pattern.has_value());
}

TEST(CharHistogramTest, RelativeFrequencies) {
  AttributeStatistics stats =
      Stats(Texts({"aab"}), DataType::kText);
  ASSERT_TRUE(stats.char_histogram.has_value());
  EXPECT_NEAR(stats.char_histogram->frequencies.at('a'), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(stats.char_histogram->frequencies.at('b'), 1.0 / 3.0, 1e-12);
}

TEST(StringLengthTest, MeanAndStddev) {
  AttributeStatistics stats =
      Stats(Texts({"ab", "abcd"}), DataType::kText);
  ASSERT_TRUE(stats.string_length.has_value());
  EXPECT_DOUBLE_EQ(stats.string_length->mean, 3.0);
  EXPECT_DOUBLE_EQ(stats.string_length->stddev, 1.0);
}

TEST(MeanStatsTest, NumericMoments) {
  AttributeStatistics stats =
      Stats(Integers({2, 4, 6}), DataType::kInteger);
  ASSERT_TRUE(stats.mean.has_value());
  EXPECT_DOUBLE_EQ(stats.mean->mean, 4.0);
  EXPECT_NEAR(stats.mean->stddev, std::sqrt(8.0 / 3.0), 1e-12);
}

TEST(MeanStatsTest, CastableTextCountsTowardsNumericStats) {
  AttributeStatistics stats = Stats(
      Texts({"10", "20", "not a number"}), DataType::kInteger);
  ASSERT_TRUE(stats.mean.has_value());
  EXPECT_DOUBLE_EQ(stats.mean->mean, 15.0);
}

TEST(ValueRangeTest, MinMax) {
  AttributeStatistics stats =
      Stats(Integers({5, -2, 9}), DataType::kReal);
  ASSERT_TRUE(stats.value_range.has_value());
  EXPECT_DOUBLE_EQ(stats.value_range->min, -2.0);
  EXPECT_DOUBLE_EQ(stats.value_range->max, 9.0);
}

TEST(HistogramTest, BucketsSumToOne) {
  std::vector<Value> column;
  for (int i = 0; i < 100; ++i) column.push_back(Value::Integer(i));
  AttributeStatistics stats = Stats(column, DataType::kInteger);
  ASSERT_TRUE(stats.histogram.has_value());
  double sum = 0.0;
  for (double fraction : stats.histogram->bucket_fractions) sum += fraction;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(TopKTest, RanksByFrequency) {
  AttributeStatistics stats = Stats(
      Texts({"x", "x", "x", "y", "y", "z"}), DataType::kText);
  ASSERT_GE(stats.top_k.top_values.size(), 3u);
  EXPECT_EQ(stats.top_k.top_values[0].first, Value::Text("x"));
  EXPECT_NEAR(stats.top_k.top_values[0].second, 0.5, 1e-12);
  EXPECT_NEAR(stats.top_k.coverage, 1.0, 1e-12);
}

TEST(TopKTest, CapsAtK) {
  std::vector<Value> column;
  for (int i = 0; i < 50; ++i) {
    column.push_back(Value::Integer(i));
  }
  AttributeStatistics stats = Stats(column, DataType::kInteger);
  EXPECT_EQ(stats.top_k.top_values.size(), TopKStats::kK);
  EXPECT_LT(stats.top_k.coverage, 0.5);
}

// --- Importance / fit -------------------------------------------------------

TEST(ImportanceTest, UniformPatternIsHighlyImportant) {
  AttributeStatistics uniform = Stats(
      Texts({"1:23", "4:56", "7:89"}), DataType::kText);
  AttributeStatistics mixed = Stats(
      Texts({"1:23", "abc", "a-b", "x y z"}), DataType::kText);
  EXPECT_GT(ImportanceScore(StatisticType::kTextPattern, uniform), 0.9);
  EXPECT_LT(ImportanceScore(StatisticType::kTextPattern, mixed), 0.5);
}

TEST(ImportanceTest, TightLengthsAreImportant) {
  AttributeStatistics tight = Stats(
      Texts({"abcd", "efgh", "ijkl"}), DataType::kText);
  EXPECT_GT(ImportanceScore(StatisticType::kStringLength, tight), 0.95);
}

TEST(FitTest, IdenticalDistributionsFitPerfectly) {
  std::vector<Value> column = Texts({"4:43", "6:55", "3:26"});
  AttributeStatistics stats = Stats(column, DataType::kText);
  EXPECT_NEAR(FitValue(StatisticType::kTextPattern, stats, stats), 1.0,
              1e-9);
  EXPECT_NEAR(FitValue(StatisticType::kCharHistogram, stats, stats), 1.0,
              1e-9);
  EXPECT_NEAR(FitValue(StatisticType::kStringLength, stats, stats), 1.0,
              1e-9);
  EXPECT_NEAR(OverallFit(stats, stats), 1.0, 1e-9);
}

TEST(FitTest, PaperLengthVsDurationMismatch) {
  // Source: millisecond integers rendered as text; target: m:ss strings.
  std::vector<Value> source;
  std::vector<Value> target;
  for (int i = 0; i < 50; ++i) {
    source.push_back(Value::Integer(100000 + i * 1357));
    target.push_back(
        Value::Text(std::to_string(2 + i % 5) + ":" +
                    std::to_string(10 + i % 45)));
  }
  AttributeStatistics source_stats =
      Stats(source, DataType::kText);
  AttributeStatistics target_stats =
      Stats(target, DataType::kText);
  // The paper's threshold separates these: fit well below 0.9.
  EXPECT_LT(OverallFit(source_stats, target_stats), 0.9);
}

TEST(FitTest, NumericScaleMismatchDetected) {
  // Seconds vs milliseconds.
  std::vector<Value> seconds;
  std::vector<Value> milliseconds;
  for (int i = 0; i < 60; ++i) {
    seconds.push_back(Value::Integer(120 + i * 3));
    milliseconds.push_back(Value::Integer((120 + i * 3) * 1000));
  }
  AttributeStatistics source_stats =
      Stats(seconds, DataType::kInteger);
  AttributeStatistics target_stats =
      Stats(milliseconds, DataType::kInteger);
  EXPECT_LT(OverallFit(source_stats, target_stats), 0.9);
}

TEST(FitTest, SameNumericPopulationFits) {
  std::vector<Value> a;
  std::vector<Value> b;
  for (int i = 0; i < 200; ++i) {
    a.push_back(Value::Integer(1970 + (i * 37) % 45));
    b.push_back(Value::Integer(1970 + (i * 53) % 45));
  }
  AttributeStatistics source_stats = Stats(a, DataType::kInteger);
  AttributeStatistics target_stats = Stats(b, DataType::kInteger);
  EXPECT_GE(OverallFit(source_stats, target_stats), 0.9);
}

TEST(FitTest, ValueRangeContainment) {
  std::vector<Value> narrow = Integers({10, 20, 30});
  std::vector<Value> wide = Integers({0, 50, 100});
  AttributeStatistics narrow_stats =
      Stats(narrow, DataType::kInteger);
  AttributeStatistics wide_stats =
      Stats(wide, DataType::kInteger);
  EXPECT_DOUBLE_EQ(
      FitValue(StatisticType::kValueRange, narrow_stats, wide_stats), 1.0);
  EXPECT_LT(FitValue(StatisticType::kValueRange, wide_stats, narrow_stats),
            1.0);
}

TEST(FitTest, MissingStatisticsFitPerfectly) {
  AttributeStatistics empty = Stats({}, DataType::kText);
  EXPECT_DOUBLE_EQ(OverallFit(empty, empty), 1.0);
}

TEST(ApplicableStatisticsTest, PerTargetType) {
  EXPECT_EQ(ApplicableStatistics(DataType::kText).size(), 4u);
  EXPECT_EQ(ApplicableStatistics(DataType::kInteger).size(), 4u);
  EXPECT_EQ(ApplicableStatistics(DataType::kBoolean).size(), 1u);
}

TEST(StatisticsTest, BatchMatchesSequentialForAnyThreadCount) {
  std::vector<std::vector<Value>> columns = {
      Texts({"4:43", "6:55", "1:02", "4:43"}),
      Integers({1, 2, 3, 4, 5, 6, 7, 8}),
      {Value::Null(), Value::Text("x"), Value::Null()},
      {},
  };
  std::vector<ProfileRequest> requests;
  std::vector<DataType> types = {DataType::kText, DataType::kInteger,
                                 DataType::kText, DataType::kReal};
  for (size_t i = 0; i < columns.size(); ++i) {
    requests.push_back(ProfileRequest{&columns[i], types[i]});
  }
  // Exact and unchunked: each column is absorbed as one block.
  ProfileOptions whole_column;
  whole_column.chunk_rows = 0;
  whole_column.max_memory_bytes = 0;
  whole_column.mode = ApproximationMode::kExact;
  for (size_t threads : {1u, 4u}) {
    SetThreadCountOverride(threads);
    auto batch = ProfileColumns(requests, whole_column);
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch->size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      AttributeStatistics sequential = Stats(columns[i], types[i]);
      EXPECT_EQ((*batch)[i].ToString(), sequential.ToString()) << i;
      EXPECT_EQ((*batch)[i].evaluated_against, types[i]);
    }
  }
  SetThreadCountOverride(0);
}

TEST(StatisticsTest, ToStringMentionsKeyFacts) {
  AttributeStatistics stats = Stats(
      Texts({"4:43", "6:55"}), DataType::kText);
  std::string text = stats.ToString();
  EXPECT_NE(text.find("patterns:"), std::string::npos);
  EXPECT_NE(text.find("9:9"), std::string::npos);
}

TEST(StatisticTypeTest, Names) {
  EXPECT_EQ(StatisticTypeToString(StatisticType::kFillStatus),
            "fill status");
  EXPECT_EQ(StatisticTypeToString(StatisticType::kTopK), "top-k values");
}

}  // namespace
}  // namespace efes
