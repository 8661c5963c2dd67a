// The attribute statistics of Section 5.1.
//
// "The basic approach of the value fit detector is to aggregate source and
// target data into statistics and compare these statistics to detect
// heterogeneities." Each statistic type provides
//   * a computation over a column of values,
//   * an importance score i(St)   — how characteristic the statistic is
//     for the *target* attribute, and
//   * a fit value f(Ss, St) ∈ [0,1] — to what extent the source attribute
//     statistics fit the target attribute statistics.
// The fit values are averaged with the importance scores as weights
// (Section 5.1); a result below a threshold (0.9 in the paper and here)
// signals domain-specific differences.

#ifndef EFES_PROFILING_STATISTICS_H_
#define EFES_PROFILING_STATISTICS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "efes/common/result.h"
#include "efes/relational/table.h"
#include "efes/relational/value.h"

namespace efes {

/// The nine statistic types of the paper, Section 5.1.
enum class StatisticType {
  kFillStatus,
  kConstancy,
  kTextPattern,
  kCharHistogram,
  kStringLength,
  kMean,
  kHistogram,
  kValueRange,
  kTopK,
};

std::string_view StatisticTypeToString(StatisticType type);

/// "The fill status counts the null values in an attribute and the values
/// that cannot be cast to the target attribute's datatype."
struct FillStatusStats {
  size_t total_count = 0;
  size_t null_count = 0;
  size_t uncastable_count = 0;

  /// Fraction of rows with a usable (non-null, castable) value.
  double FillFraction() const;
  /// Fraction of rows with any non-null value, castable or not. The
  /// "substantially fewer source values" rule compares this one:
  /// uncastable values are a representation problem, not missing data.
  double NonNullFraction() const;
  /// Fraction of non-null values castable to the target type.
  double CastableFraction() const;
};

/// "The constancy is the inverse of Shannon's information entropy and is
/// useful to classify whether the values of an attribute come from a
/// discrete domain." We normalize: constancy = 1 - H(values)/log2(n).
struct ConstancyStats {
  double constancy = 1.0;
  size_t distinct_count = 0;
  size_t non_null_count = 0;
};

/// "The text pattern statistic collects frequent patterns in a string
/// attribute." Patterns generalize runs of digits to `9`, letters to `a`,
/// and keep punctuation, so "4:43" becomes "9:9" and "Sweet Home" becomes
/// "a a" — the paper's [number ":" number] idea.
struct TextPatternStats {
  /// Pattern -> relative frequency, descending, capped at kMaxPatterns.
  std::vector<std::pair<std::string, double>> patterns;
  static constexpr size_t kMaxPatterns = 32;
};

/// "Character histogram captures the relative occurrences of characters in
/// a string attribute."
struct CharHistogramStats {
  std::map<char, double> frequencies;
};

/// "The string length statistic determines the average string length and
/// its standard deviation."
struct StringLengthStats {
  double mean = 0.0;
  double stddev = 0.0;
};

/// "The mean statistic collects the mean value and standard deviation of a
/// numeric attribute."
struct MeanStats {
  double mean = 0.0;
  double stddev = 0.0;
};

/// "The histogram statistic describes numeric attributes as histograms."
/// Equi-width buckets over [min, max].
struct HistogramStats {
  double min = 0.0;
  double max = 0.0;
  std::vector<double> bucket_fractions;  // sums to 1 when non-empty
  static constexpr size_t kBucketCount = 16;
};

/// "Value ranges are used to determine the minimum and maximum value of a
/// numeric attribute."
struct ValueRangeStats {
  double min = 0.0;
  double max = 0.0;
};

/// "For attributes with values from a discrete domain, the top-k values
/// statistic identifies the most frequent values."
struct TopKStats {
  /// Value -> relative frequency, descending, at most kK entries.
  std::vector<std::pair<Value, double>> top_values;
  /// Fraction of all non-null occurrences covered by top_values.
  double coverage = 0.0;
  static constexpr size_t kK = 10;
};

/// The full statistics bundle for one attribute, computed against a target
/// datatype ("the target attribute's datatype designating which exact
/// statistic types to use"). String-directed statistics view every value
/// through its text rendering; numeric ones only cover values castable to
/// a number.
struct AttributeStatistics {
  DataType evaluated_against = DataType::kText;

  FillStatusStats fill_status;
  ConstancyStats constancy;
  std::optional<TextPatternStats> text_pattern;
  std::optional<CharHistogramStats> char_histogram;
  std::optional<StringLengthStats> string_length;
  std::optional<MeanStats> mean;
  std::optional<HistogramStats> histogram;
  std::optional<ValueRangeStats> value_range;
  TopKStats top_k;

  /// Multi-line human-readable rendering for reports/examples.
  std::string ToString() const;
};

/// Generalizes a string into its text pattern: digit runs -> '9', letter
/// runs -> 'a', whitespace runs -> ' ', everything else verbatim.
std::string GeneralizeToPattern(std::string_view text);

// --- Importance / fit scoring (Section 5.1) -------------------------------

/// Importance score i(St(τ)) in [0,1] of statistic `type` for a target
/// attribute with statistics `target`. E.g. a text-pattern statistic where
/// all values share one pattern is highly characteristic (close to 1);
/// many diverse patterns push it towards 0.
double ImportanceScore(StatisticType type, const AttributeStatistics& target);

/// Fit value f(Ss(τ), St(τ)) in [0,1]: to what extent the source statistic
/// fits the target statistic. 1 = indistinguishable distributions.
double FitValue(StatisticType type, const AttributeStatistics& source,
                const AttributeStatistics& target);

/// The importance-weighted average fit over all statistics applicable to
/// the target type ("the overall fit value tells to what extent the source
/// attribute fulfills the most important characteristics of the target
/// attribute"). Returns 1 when no statistic is applicable.
double OverallFit(const AttributeStatistics& source,
                  const AttributeStatistics& target);

/// The statistic types consulted by OverallFit for a given target type.
std::vector<StatisticType> ApplicableStatistics(DataType target_type);

}  // namespace efes

#endif  // EFES_PROFILING_STATISTICS_H_
