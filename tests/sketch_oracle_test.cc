// Oracle test for StatisticsSketch::Finalize (DESIGN.md §16): every
// §5.1 statistic of a streamed, chunked, merged sketch must equal a
// naive reference computed from a std::map<Value, count> over the whole
// column. The columns are random and adversarial for the sketch's
// storage and parse rules: many frequency ties, numerics that compare
// equal across types (3 / 3.0, 0 / -0.0), and text that parses in
// surprising ways (" 7 ", "0x1A", "+5", "1e400", "-0"). Sketch mode is
// checked under a small budget against the same reference restricted to
// the hash sample, including the level the budget forces.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "efes/common/parallel.h"
#include "efes/common/random.h"
#include "efes/profiling/profiler.h"
#include "efes/profiling/sketch.h"
#include "efes/profiling/statistics.h"
#include "efes/relational/value.h"

namespace efes {
namespace {

constexpr DataType kTargets[] = {DataType::kText, DataType::kInteger,
                                 DataType::kReal};

/// The numeric reading of a cell, stated through the public Value API.
std::optional<double> NumericReading(const Value& value) {
  if (value.type() == DataType::kInteger || value.type() == DataType::kReal) {
    return value.NumericValue();
  }
  if (!value.CanCastTo(DataType::kReal)) return std::nullopt;
  return value.CastTo(DataType::kReal)->AsReal();
}

/// Budget model of one tracked value (mirrors the documented cost).
uint64_t Cost(const Value& value) {
  return 64 + (value.type() == DataType::kText ? value.AsText().size() : 0);
}

/// The smallest sampling level at which the column's tracked distinct
/// set fits `cap` bytes (0 = unlimited), i.e. where coarsening must stop.
uint32_t CanonicalLevel(const std::vector<Value>& column, uint64_t cap) {
  if (cap == 0) return 0;
  std::map<Value, uint64_t> hashes;
  for (const Value& value : column) {
    if (!value.is_null()) hashes.emplace(value, SketchValueHash(value));
  }
  for (uint32_t level = 0;; ++level) {
    uint64_t bytes = 256;
    for (const auto& [value, hash] : hashes) {
      if (level == 0 || (hash >> (64 - level)) == 0) bytes += Cost(value);
    }
    if (bytes <= cap) return level;
  }
}

/// Naive reference statistics: a std::map over the column in row order
/// (so the first inserted of equal values is the key), restricted to the
/// hash sample at `level`.
AttributeStatistics Reference(const std::vector<Value>& column,
                              DataType target, uint32_t level) {
  AttributeStatistics stats;
  stats.evaluated_against = target;
  const bool numeric_target =
      target == DataType::kInteger || target == DataType::kReal;
  std::map<Value, uint64_t> counts;
  uint64_t numeric_count = 0;
  double numeric_min = 0.0;
  double numeric_max = 0.0;
  for (const Value& value : column) {
    ++stats.fill_status.total_count;
    if (value.is_null()) {
      ++stats.fill_status.null_count;
      continue;
    }
    if (!value.CanCastTo(target)) ++stats.fill_status.uncastable_count;
    if (numeric_target) {
      if (std::optional<double> number = NumericReading(value)) {
        numeric_min = numeric_count == 0 ? *number
                                         : std::min(numeric_min, *number);
        numeric_max = numeric_count == 0 ? *number
                                         : std::max(numeric_max, *number);
        ++numeric_count;
      }
    }
    const uint64_t hash = SketchValueHash(value);
    if (level == 0 || (hash >> (64 - level)) == 0) ++counts[value];
  }
  const uint64_t non_null =
      stats.fill_status.total_count - stats.fill_status.null_count;
  uint64_t sample_total = 0;
  for (const auto& [value, count] : counts) sample_total += count;
  const double scale = std::ldexp(1.0, static_cast<int>(level));

  stats.constancy.non_null_count = non_null;
  stats.constancy.distinct_count = counts.size() << level;
  if (non_null > 0 && stats.constancy.distinct_count > 1) {
    double entropy = 0.0;
    for (const auto& [value, count] : counts) {
      const double p =
          static_cast<double>(count) / static_cast<double>(non_null);
      entropy -= p * std::log2(p);
    }
    entropy *= scale;
    const double max_entropy = std::log2(static_cast<double>(non_null));
    stats.constancy.constancy =
        max_entropy < 1e-12 ? 1.0
                            : std::max(0.0, 1.0 - entropy / max_entropy);
  }

  // Top-k: map order is value order, so a stable sort on frequency alone
  // breaks ties by ascending value.
  std::vector<std::pair<Value, double>> ranked;
  for (const auto& [value, count] : counts) {
    ranked.emplace_back(value, non_null == 0
                                   ? 0.0
                                   : static_cast<double>(count) /
                                         static_cast<double>(non_null));
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  if (ranked.size() > TopKStats::kK) ranked.resize(TopKStats::kK);
  for (const auto& [value, freq] : ranked) stats.top_k.coverage += freq;
  stats.top_k.top_values = std::move(ranked);

  const double denom = static_cast<double>(sample_total);
  if (target == DataType::kText) {
    std::map<std::string, uint64_t> pattern_counts;
    std::map<char, uint64_t> char_counts;
    uint64_t total_chars = 0;
    double length_sum = 0.0;
    for (const auto& [value, count] : counts) {
      const std::string text = value.ToString();
      pattern_counts[GeneralizeToPattern(text)] += count;
      for (char c : text) char_counts[c] += count;
      total_chars += count * text.size();
      length_sum += static_cast<double>(count) *
                    static_cast<double>(text.size());
    }
    TextPatternStats patterns;
    for (const auto& [pattern, count] : pattern_counts) {
      patterns.patterns.emplace_back(
          pattern,
          sample_total == 0 ? 0.0 : static_cast<double>(count) / denom);
    }
    std::stable_sort(patterns.patterns.begin(), patterns.patterns.end(),
                     [](const auto& a, const auto& b) {
                       return a.second > b.second;
                     });
    if (patterns.patterns.size() > TextPatternStats::kMaxPatterns) {
      patterns.patterns.resize(TextPatternStats::kMaxPatterns);
    }
    stats.text_pattern = std::move(patterns);
    CharHistogramStats chars;
    for (const auto& [c, count] : char_counts) {
      chars.frequencies[c] = static_cast<double>(count) /
                             static_cast<double>(total_chars);
    }
    stats.char_histogram = std::move(chars);
    const double mean = sample_total == 0 ? 0.0 : length_sum / denom;
    double variance = 0.0;
    for (const auto& [value, count] : counts) {
      const double d = static_cast<double>(value.ToString().size()) - mean;
      variance += static_cast<double>(count) * d * d;
    }
    if (sample_total > 0) variance /= denom;
    stats.string_length = StringLengthStats{mean, std::sqrt(variance)};
  }

  if (numeric_target && numeric_count > 0) {
    std::vector<std::pair<double, uint64_t>> numbers;
    uint64_t sample_numeric = 0;
    for (const auto& [value, count] : counts) {
      if (std::optional<double> number = NumericReading(value)) {
        numbers.emplace_back(*number, count);
        sample_numeric += count;
      }
    }
    const double numeric_denom = static_cast<double>(sample_numeric);
    double mean = 0.0;
    for (const auto& [v, count] : numbers) {
      mean += static_cast<double>(count) * v;
    }
    if (sample_numeric > 0) mean /= numeric_denom;
    double variance = 0.0;
    for (const auto& [v, count] : numbers) {
      variance += static_cast<double>(count) * (v - mean) * (v - mean);
    }
    if (sample_numeric > 0) variance /= numeric_denom;
    stats.mean = MeanStats{mean, std::sqrt(variance)};
    stats.value_range = ValueRangeStats{numeric_min, numeric_max};
    HistogramStats histogram;
    histogram.min = numeric_min;
    histogram.max = numeric_max;
    histogram.bucket_fractions.assign(HistogramStats::kBucketCount, 0.0);
    const double width =
        (numeric_max - numeric_min) / HistogramStats::kBucketCount;
    for (const auto& [v, count] : numbers) {
      const size_t bucket =
          width < 1e-12
              ? 0
              : std::min(HistogramStats::kBucketCount - 1,
                         static_cast<size_t>((v - numeric_min) / width));
      if (sample_numeric > 0) {
        histogram.bucket_fractions[bucket] +=
            static_cast<double>(count) / numeric_denom;
      }
    }
    stats.histogram = std::move(histogram);
  }
  return stats;
}

/// Bit equality, so -0.0 and 0.0 are told apart.
::testing::AssertionResult SameDouble(const char* what, double got,
                                      double want) {
  if (std::memcmp(&got, &want, sizeof(double)) == 0) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << what << ": got " << got << ", want " << want;
}

/// Typed equality: Integer 3 and Real 3.0 are different representatives.
bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.type() == DataType::kReal) {
    const double x = a.AsReal();
    const double y = b.AsReal();
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  }
  return a == b;
}

void ExpectSameStatistics(const AttributeStatistics& got,
                          const AttributeStatistics& want) {
  EXPECT_EQ(got.evaluated_against, want.evaluated_against);
  EXPECT_EQ(got.fill_status.total_count, want.fill_status.total_count);
  EXPECT_EQ(got.fill_status.null_count, want.fill_status.null_count);
  EXPECT_EQ(got.fill_status.uncastable_count,
            want.fill_status.uncastable_count);
  EXPECT_EQ(got.constancy.non_null_count, want.constancy.non_null_count);
  EXPECT_EQ(got.constancy.distinct_count, want.constancy.distinct_count);
  EXPECT_TRUE(SameDouble("constancy", got.constancy.constancy,
                         want.constancy.constancy));

  ASSERT_EQ(got.top_k.top_values.size(), want.top_k.top_values.size());
  for (size_t i = 0; i < want.top_k.top_values.size(); ++i) {
    EXPECT_TRUE(SameValue(got.top_k.top_values[i].first,
                          want.top_k.top_values[i].first))
        << "top-k #" << i << ": got " << got.top_k.top_values[i].first
        << ", want " << want.top_k.top_values[i].first;
    EXPECT_TRUE(SameDouble("top-k frequency", got.top_k.top_values[i].second,
                           want.top_k.top_values[i].second));
  }
  EXPECT_TRUE(
      SameDouble("coverage", got.top_k.coverage, want.top_k.coverage));

  ASSERT_EQ(got.text_pattern.has_value(), want.text_pattern.has_value());
  if (want.text_pattern) {
    ASSERT_EQ(got.text_pattern->patterns.size(),
              want.text_pattern->patterns.size());
    for (size_t i = 0; i < want.text_pattern->patterns.size(); ++i) {
      EXPECT_EQ(got.text_pattern->patterns[i].first,
                want.text_pattern->patterns[i].first);
      EXPECT_TRUE(SameDouble("pattern frequency",
                             got.text_pattern->patterns[i].second,
                             want.text_pattern->patterns[i].second));
    }
  }
  ASSERT_EQ(got.char_histogram.has_value(), want.char_histogram.has_value());
  if (want.char_histogram) {
    EXPECT_EQ(got.char_histogram->frequencies,
              want.char_histogram->frequencies);
  }
  ASSERT_EQ(got.string_length.has_value(), want.string_length.has_value());
  if (want.string_length) {
    EXPECT_TRUE(SameDouble("length mean", got.string_length->mean,
                           want.string_length->mean));
    EXPECT_TRUE(SameDouble("length stddev", got.string_length->stddev,
                           want.string_length->stddev));
  }
  ASSERT_EQ(got.mean.has_value(), want.mean.has_value());
  if (want.mean) {
    EXPECT_TRUE(SameDouble("mean", got.mean->mean, want.mean->mean));
    EXPECT_TRUE(SameDouble("stddev", got.mean->stddev, want.mean->stddev));
  }
  ASSERT_EQ(got.value_range.has_value(), want.value_range.has_value());
  if (want.value_range) {
    EXPECT_TRUE(SameDouble("range min", got.value_range->min,
                           want.value_range->min));
    EXPECT_TRUE(SameDouble("range max", got.value_range->max,
                           want.value_range->max));
  }
  ASSERT_EQ(got.histogram.has_value(), want.histogram.has_value());
  if (want.histogram) {
    EXPECT_TRUE(SameDouble("histogram min", got.histogram->min,
                           want.histogram->min));
    EXPECT_TRUE(SameDouble("histogram max", got.histogram->max,
                           want.histogram->max));
    ASSERT_EQ(got.histogram->bucket_fractions.size(),
              want.histogram->bucket_fractions.size());
    for (size_t i = 0; i < want.histogram->bucket_fractions.size(); ++i) {
      EXPECT_TRUE(SameDouble("bucket", got.histogram->bucket_fractions[i],
                             want.histogram->bucket_fractions[i]));
    }
  }
  EXPECT_EQ(got.ToString(), want.ToString());
}

/// Cells whose text parses in surprising ways, plus plain words.
const char* const kTrickyText[] = {
    "3", "3.0", " 7 ", "7", "0x1A", "+5", "1e400", "-0", "0", "-5",
    "2.5", "12abc", "", "true", "1e3", "  ", "a-b", "X9", "007", "-1e-3"};

/// Random column of typed and text cells with many frequency ties:
/// draws from a small pool, so counts collide often.
std::vector<Value> MixedColumn(Random& rng, size_t n) {
  std::vector<Value> pool = {
      Value::Integer(3),     Value::Real(3.0),        Value::Integer(0),
      Value::Real(-0.0),     Value::Real(0.0),        Value::Integer(-5),
      Value::Real(2.5),      Value::Integer(1000000), Value::Real(-1e-3),
      Value::Boolean(true),  Value::Boolean(false),   Value::Integer(7),
      Value::Real(1e15),     Value::Integer(INT64_MAX)};
  for (const char* text : kTrickyText) pool.push_back(Value::Text(text));
  for (int i = 0; i < 12; ++i) {
    pool.push_back(Value::Text(rng.Word(1, 12)));
  }
  std::vector<Value> column;
  column.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.07)) {
      column.push_back(Value::Null());
    } else {
      column.push_back(pool[rng.UniformUint64(pool.size())]);
    }
  }
  return column;
}

/// Random text-only column (the `efes profile` cell shape): tricky
/// numeric text, integers as text and words over a wide domain.
std::vector<Value> TextColumn(Random& rng, size_t n, size_t domain) {
  std::vector<Value> column;
  column.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t pick = rng.UniformUint64(10);
    if (pick == 0) {
      column.push_back(Value::Null());
    } else if (pick <= 2) {
      column.push_back(Value::Text(
          kTrickyText[rng.UniformUint64(std::size(kTrickyText))]));
    } else if (pick <= 6) {
      column.push_back(Value::Text(
          std::to_string(static_cast<int64_t>(rng.UniformUint64(domain)) -
                         static_cast<int64_t>(domain / 4))));
    } else if (pick <= 8) {
      column.push_back(Value::Text(
          std::to_string(rng.UniformUint64(domain)) + "." +
          std::to_string(rng.UniformUint64(100))));
    } else {
      column.push_back(Value::Text(
          "w" + std::to_string(rng.UniformUint64(domain))));
    }
  }
  return column;
}

/// Profiles through the product entry point at each chunking and two
/// thread counts; every result must match `want`.
void ExpectEveryChunkingMatches(const std::vector<Value>& column,
                                DataType target, ProfileOptions options,
                                const AttributeStatistics& want) {
  for (size_t chunk_rows : {size_t{1}, size_t{7}, size_t{0}}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE("chunk_rows=" + std::to_string(chunk_rows) +
                   " threads=" + std::to_string(threads));
      options.chunk_rows = chunk_rows;
      SetThreadCountOverride(threads);
      Result<AttributeStatistics> got =
          ProfileColumn(column, target, options);
      SetThreadCountOverride(0);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectSameStatistics(*got, want);
    }
  }
}

TEST(SketchOracleTest, ExactFinalizeMatchesNaiveMapOnMixedColumns) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Random rng(seed);
    const size_t rows = seed == 1 ? 0 : rng.UniformUint64(400) + 1;
    const std::vector<Value> column = MixedColumn(rng, rows);
    for (DataType target : kTargets) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " target " +
                   std::string(DataTypeToString(target)));
      const AttributeStatistics want = Reference(column, target, 0);
      StatisticsSketch single(target, ProfileOptions{});
      ASSERT_TRUE(single.AbsorbRange(column, 0, column.size()).ok());
      ExpectSameStatistics(single.Finalize(), want);
      ExpectEveryChunkingMatches(column, target, ProfileOptions{}, want);
    }
  }
}

TEST(SketchOracleTest, ExactFinalizeMatchesNaiveMapOnTextCells) {
  for (uint64_t seed = 20; seed < 26; ++seed) {
    Random rng(seed);
    const std::vector<Value> column = TextColumn(rng, 1500, 300);
    for (DataType target : kTargets) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " target " +
                   std::string(DataTypeToString(target)));
      ExpectEveryChunkingMatches(column, target, ProfileOptions{},
                                 Reference(column, target, 0));
    }
  }
}

TEST(SketchOracleTest, SketchModeMatchesTheReferenceOverItsHashSample) {
  // Under a small budget the sketch must stop coarsening at the smallest
  // level whose sample fits, and finalize exactly the reference over
  // that sample. Text cells only: there, equal values share one content
  // hash, so the sample is a pure function of the distinct set.
  constexpr uint64_t kBudget = 8192;
  for (uint64_t seed = 40; seed < 44; ++seed) {
    Random rng(seed);
    const std::vector<Value> column = TextColumn(rng, 3000, 2000);
    const uint32_t level = CanonicalLevel(column, kBudget);
    ASSERT_GT(level, 0u) << "budget too loose to force a sample";
    for (DataType target : kTargets) {
      for (ApproximationMode mode :
           {ApproximationMode::kSketch, ApproximationMode::kAuto}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " target " +
                     std::string(DataTypeToString(target)) + " mode " +
                     std::string(ApproximationModeToString(mode)));
        ProfileOptions options;
        options.mode = mode;
        options.max_memory_bytes = kBudget;
        StatisticsSketch single(target, options);
        ASSERT_TRUE(single.AbsorbRange(column, 0, column.size()).ok());
        EXPECT_EQ(single.level(), level);
        EXPECT_LE(single.MemoryBytes(), kBudget);
        const AttributeStatistics want = Reference(column, target, level);
        ExpectSameStatistics(single.Finalize(), want);
        ExpectEveryChunkingMatches(column, target, options, want);
      }
    }
  }
}

TEST(SketchOracleTest, EqualNumericsShareOneEntryKeepingTheFirst) {
  // 3 and 3.0 compare equal, so they are one distinct value whose
  // representative is the first one absorbed; -0.0 and 0 likewise.
  for (bool integer_first : {true, false}) {
    SCOPED_TRACE(integer_first ? "integer first" : "real first");
    std::vector<Value> column;
    for (int i = 0; i < 5; ++i) {
      column.push_back(integer_first == (i % 2 == 0) ? Value::Integer(3)
                                                     : Value::Real(3.0));
    }
    column.push_back(integer_first ? Value::Integer(0) : Value::Real(-0.0));
    column.push_back(integer_first ? Value::Real(-0.0) : Value::Integer(0));
    StatisticsSketch sketch(DataType::kText, ProfileOptions{});
    ASSERT_TRUE(sketch.AbsorbRange(column, 0, column.size()).ok());
    EXPECT_EQ(sketch.tracked_count(), 2u);
    const AttributeStatistics stats = sketch.Finalize();
    EXPECT_EQ(stats.constancy.distinct_count, 2u);
    ASSERT_EQ(stats.top_k.top_values.size(), 2u);
    EXPECT_EQ(stats.top_k.top_values[0].first.type(),
              integer_first ? DataType::kInteger : DataType::kReal);
    EXPECT_EQ(stats.top_k.top_values[1].first.ToString(),
              integer_first ? "0" : "-0");
    ExpectSameStatistics(stats, Reference(column, DataType::kText, 0));

    // Merging keeps the receiving sketch's representative.
    StatisticsSketch other(DataType::kText, ProfileOptions{});
    ASSERT_TRUE(other.Absorb(integer_first ? Value::Real(3.0)
                                           : Value::Integer(3))
                    .ok());
    ASSERT_TRUE(other.Merge(sketch).ok());
    EXPECT_EQ(other.tracked_count(), 2u);
    EXPECT_EQ(other.Finalize().top_k.top_values[0].first.type(),
              integer_first ? DataType::kReal : DataType::kInteger);
  }
}

TEST(SketchOracleTest, EveryNaNIsItsOwnEntry) {
  // NaN never equals itself, so each NaN cell is a distinct value, in a
  // single pass and through merges alike.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Value> column = {Value::Real(nan), Value::Real(1.5),
                               Value::Real(nan), Value::Real(1.5),
                               Value::Null(),    Value::Real(nan)};
  StatisticsSketch single(DataType::kText, ProfileOptions{});
  ASSERT_TRUE(single.AbsorbRange(column, 0, column.size()).ok());
  EXPECT_EQ(single.tracked_count(), 4u);
  AttributeStatistics stats = single.Finalize();
  EXPECT_EQ(stats.constancy.distinct_count, 4u);
  EXPECT_EQ(stats.constancy.non_null_count, 5u);
  EXPECT_EQ(stats.fill_status.null_count, 1u);

  StatisticsSketch left(DataType::kText, ProfileOptions{});
  StatisticsSketch right(DataType::kText, ProfileOptions{});
  ASSERT_TRUE(left.AbsorbRange(column, 0, 3).ok());
  ASSERT_TRUE(right.AbsorbRange(column, 3, column.size()).ok());
  ASSERT_TRUE(left.Merge(right).ok());
  EXPECT_EQ(left.tracked_count(), 4u);
  EXPECT_EQ(left.Finalize().constancy.distinct_count, 4u);
  EXPECT_EQ(left.ExportState().entries.size(), 4u);
}

TEST(SketchOracleTest, StateRoundTripKeepsEveryStatistic) {
  for (uint64_t seed = 60; seed < 64; ++seed) {
    Random rng(seed);
    const std::vector<Value> column = MixedColumn(rng, 300);
    for (DataType target : kTargets) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " target " +
                   std::string(DataTypeToString(target)));
      StatisticsSketch sketch(target, ProfileOptions{});
      ASSERT_TRUE(sketch.AbsorbRange(column, 0, column.size()).ok());
      Result<StatisticsSketch> restored =
          StatisticsSketch::FromState(sketch.ExportState());
      ASSERT_TRUE(restored.ok()) << restored.status().ToString();
      EXPECT_EQ(restored->MemoryBytes(), sketch.MemoryBytes());
      ExpectSameStatistics(restored->Finalize(), sketch.Finalize());
    }
  }
}

}  // namespace
}  // namespace efes
