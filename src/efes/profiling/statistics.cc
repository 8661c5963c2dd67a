#include "efes/profiling/statistics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "efes/common/string_util.h"

namespace efes {

namespace {

constexpr double kEpsilon = 1e-12;

/// Intersection of two discrete distributions given as sorted
/// (key, frequency) vectors: sum of min frequencies per shared key.
template <typename Key>
double HistogramIntersection(
    const std::vector<std::pair<Key, double>>& a,
    const std::vector<std::pair<Key, double>>& b) {
  double intersection = 0.0;
  for (const auto& [key_a, freq_a] : a) {
    for (const auto& [key_b, freq_b] : b) {
      if (key_a == key_b) {
        intersection += std::min(freq_a, freq_b);
        break;
      }
    }
  }
  return intersection;
}

/// Concentration (Herfindahl index) of a distribution: sum of squared
/// frequencies. 1 = single value; ->0 = very diverse. Used as the
/// importance of pattern/top-k style statistics.
double Concentration(const std::vector<std::pair<std::string, double>>& dist) {
  double h = 0.0;
  for (const auto& [key, freq] : dist) h += freq * freq;
  return h;
}

/// Similarity of two (mean, stddev) summaries: the product of a location
/// term and a spread term, both in (0, 1].
double MomentsFit(double mean_s, double stddev_s, double mean_t,
                  double stddev_t) {
  double scale = std::max({std::abs(mean_t), stddev_t, 1.0});
  double location = std::exp(-std::abs(mean_s - mean_t) / scale);
  double spread_hi = std::max(stddev_s, stddev_t);
  double spread =
      spread_hi < kEpsilon ? 1.0 : std::min(stddev_s, stddev_t) / spread_hi;
  // Give the location term most of the weight; spread refines it.
  return location * (0.5 + 0.5 * spread);
}

bool IsNumericTarget(DataType type) {
  return type == DataType::kInteger || type == DataType::kReal;
}

}  // namespace

std::string_view StatisticTypeToString(StatisticType type) {
  switch (type) {
    case StatisticType::kFillStatus:
      return "fill status";
    case StatisticType::kConstancy:
      return "constancy";
    case StatisticType::kTextPattern:
      return "text pattern";
    case StatisticType::kCharHistogram:
      return "character histogram";
    case StatisticType::kStringLength:
      return "string length";
    case StatisticType::kMean:
      return "mean";
    case StatisticType::kHistogram:
      return "histogram";
    case StatisticType::kValueRange:
      return "value range";
    case StatisticType::kTopK:
      return "top-k values";
  }
  return "unknown";
}

double FillStatusStats::FillFraction() const {
  if (total_count == 0) return 1.0;
  return static_cast<double>(total_count - null_count - uncastable_count) /
         static_cast<double>(total_count);
}

double FillStatusStats::NonNullFraction() const {
  if (total_count == 0) return 1.0;
  return static_cast<double>(total_count - null_count) /
         static_cast<double>(total_count);
}

double FillStatusStats::CastableFraction() const {
  size_t non_null = total_count - null_count;
  if (non_null == 0) return 1.0;
  return static_cast<double>(non_null - uncastable_count) /
         static_cast<double>(non_null);
}

namespace {

/// 256-entry character-class table (digit -> '9', letter -> 'a',
/// whitespace -> ' ', everything else verbatim, matching the C locale).
/// A flat lookup keeps the per-byte classing loop branch-free — the
/// profiling hot path runs this over every tracked value.
struct PatternClassTable {
  constexpr PatternClassTable() : cls() {
    for (int i = 0; i < 256; ++i) {
      const char c = static_cast<char>(i);
      if (c >= '0' && c <= '9') {
        cls[i] = '9';
      } else if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')) {
        cls[i] = 'a';
      } else if (c == ' ' || c == '\t' || c == '\n' || c == '\v' ||
                 c == '\f' || c == '\r') {
        cls[i] = ' ';
      } else {
        cls[i] = c;
      }
    }
  }
  char cls[256];
};

constexpr PatternClassTable kPatternClasses;

}  // namespace

std::string GeneralizeToPattern(std::string_view text) {
  std::string pattern;
  char last_class = '\0';
  for (char c : text) {
    const char cls = kPatternClasses.cls[static_cast<unsigned char>(c)];
    // Collapse runs of the same digit/letter/space class; punctuation is
    // kept verbatim and not collapsed so "1998-01-02" -> "9-9-9".
    if (cls == '9' || cls == 'a' || cls == ' ') {
      if (cls == last_class) continue;
    }
    pattern.push_back(cls);
    last_class = cls;
  }
  return pattern;
}

std::vector<StatisticType> ApplicableStatistics(DataType target_type) {
  if (target_type == DataType::kText) {
    return {StatisticType::kTextPattern, StatisticType::kCharHistogram,
            StatisticType::kStringLength, StatisticType::kTopK};
  }
  if (IsNumericTarget(target_type)) {
    return {StatisticType::kMean, StatisticType::kHistogram,
            StatisticType::kValueRange, StatisticType::kTopK};
  }
  // Boolean targets: value distribution is all there is.
  return {StatisticType::kTopK};
}

double ImportanceScore(StatisticType type,
                       const AttributeStatistics& target) {
  switch (type) {
    case StatisticType::kTextPattern: {
      // All values sharing one pattern => highly characteristic.
      if (!target.text_pattern.has_value() ||
          target.text_pattern->patterns.empty()) {
        return 0.0;
      }
      return Concentration(target.text_pattern->patterns);
    }
    case StatisticType::kCharHistogram: {
      if (!target.char_histogram.has_value() ||
          target.char_histogram->frequencies.empty()) {
        return 0.0;
      }
      // Concentrated alphabets (few characters dominate) are
      // characteristic; diffuse free text is not.
      double h = 0.0;
      for (const auto& [c, freq] : target.char_histogram->frequencies) {
        h += freq * freq;
      }
      // Scale: natural English text has h around 0.06; formatted codes
      // much higher. Map through sqrt to spread the range.
      return std::min(1.0, std::sqrt(h * 4.0));
    }
    case StatisticType::kStringLength: {
      if (!target.string_length.has_value()) return 0.0;
      double mean = target.string_length->mean;
      double cv = mean < kEpsilon
                      ? 0.0
                      : target.string_length->stddev / mean;
      return 1.0 / (1.0 + cv);  // tight lengths => important
    }
    case StatisticType::kMean: {
      if (!target.mean.has_value()) return 0.0;
      double mean = std::abs(target.mean->mean);
      double cv = mean < kEpsilon ? 1.0 : target.mean->stddev / mean;
      return 1.0 / (1.0 + cv);
    }
    case StatisticType::kHistogram:
      return target.histogram.has_value() ? 0.5 : 0.0;
    case StatisticType::kValueRange:
      return target.value_range.has_value() ? 0.5 : 0.0;
    case StatisticType::kTopK: {
      // High coverage by few values => discrete domain => important.
      // Squaring suppresses the noisy tail: for high-cardinality
      // attributes the specific top-k values of two samples from the same
      // population differ by chance, so they must not characterize it.
      if (target.top_k.top_values.empty()) return 0.0;
      return target.top_k.coverage * target.top_k.coverage;
    }
    case StatisticType::kFillStatus:
    case StatisticType::kConstancy:
      // Consulted directly by the decision rules, not via weighting.
      return 0.0;
  }
  return 0.0;
}

double FitValue(StatisticType type, const AttributeStatistics& source,
                const AttributeStatistics& target) {
  switch (type) {
    case StatisticType::kTextPattern: {
      if (!source.text_pattern.has_value() ||
          !target.text_pattern.has_value()) {
        return 1.0;
      }
      return HistogramIntersection(source.text_pattern->patterns,
                                   target.text_pattern->patterns);
    }
    case StatisticType::kCharHistogram: {
      if (!source.char_histogram.has_value() ||
          !target.char_histogram.has_value()) {
        return 1.0;
      }
      double intersection = 0.0;
      for (const auto& [c, freq_s] : source.char_histogram->frequencies) {
        auto it = target.char_histogram->frequencies.find(c);
        if (it != target.char_histogram->frequencies.end()) {
          intersection += std::min(freq_s, it->second);
        }
      }
      return intersection;
    }
    case StatisticType::kStringLength: {
      if (!source.string_length.has_value() ||
          !target.string_length.has_value()) {
        return 1.0;
      }
      return MomentsFit(source.string_length->mean,
                        source.string_length->stddev,
                        target.string_length->mean,
                        target.string_length->stddev);
    }
    case StatisticType::kMean: {
      if (!source.mean.has_value() || !target.mean.has_value()) return 1.0;
      return MomentsFit(source.mean->mean, source.mean->stddev,
                        target.mean->mean, target.mean->stddev);
    }
    case StatisticType::kHistogram: {
      if (!source.histogram.has_value() || !target.histogram.has_value()) {
        return 1.0;
      }
      // Compare bucket distributions over the union range by resampling
      // both histograms onto that range.
      const HistogramStats& hs = *source.histogram;
      const HistogramStats& ht = *target.histogram;
      double lo = std::min(hs.min, ht.min);
      double hi = std::max(hs.max, ht.max);
      if (hi - lo < kEpsilon) return 1.0;
      auto resample = [&](const HistogramStats& h) {
        std::vector<double> out(HistogramStats::kBucketCount, 0.0);
        double width = (h.max - h.min) / HistogramStats::kBucketCount;
        for (size_t b = 0; b < h.bucket_fractions.size(); ++b) {
          double center = width < kEpsilon
                              ? h.min
                              : h.min + width * (static_cast<double>(b) + 0.5);
          size_t target_bucket = std::min(
              HistogramStats::kBucketCount - 1,
              static_cast<size_t>((center - lo) / (hi - lo) *
                                  HistogramStats::kBucketCount));
          out[target_bucket] += h.bucket_fractions[b];
        }
        return out;
      };
      std::vector<double> a = resample(hs);
      std::vector<double> b = resample(ht);
      double intersection = 0.0;
      for (size_t i = 0; i < a.size(); ++i) {
        intersection += std::min(a[i], b[i]);
      }
      // Finite-sample correction: two samples of the *same* population
      // miss each other by O(sqrt(buckets / n)) of intersection mass, so
      // small samples must not be penalized for that inevitable noise.
      size_t n = std::min(source.constancy.non_null_count,
                          target.constancy.non_null_count);
      if (n > 0) {
        intersection += 0.5 * std::sqrt(static_cast<double>(
                                            HistogramStats::kBucketCount) /
                                        static_cast<double>(n));
      }
      return std::min(1.0, intersection);
    }
    case StatisticType::kValueRange: {
      if (!source.value_range.has_value() ||
          !target.value_range.has_value()) {
        return 1.0;
      }
      const ValueRangeStats& rs = *source.value_range;
      const ValueRangeStats& rt = *target.value_range;
      double span_s = rs.max - rs.min;
      if (span_s < kEpsilon) {
        // Point range: fits iff inside (a tolerance of the target span).
        double tolerance = std::max(rt.max - rt.min, 1.0) * 0.5;
        return (rs.min >= rt.min - tolerance && rs.max <= rt.max + tolerance)
                   ? 1.0
                   : 0.0;
      }
      double overlap = std::min(rs.max, rt.max) - std::max(rs.min, rt.min);
      return std::max(0.0, overlap) / span_s;
    }
    case StatisticType::kTopK: {
      if (source.top_k.top_values.empty() ||
          target.top_k.top_values.empty()) {
        return 1.0;
      }
      // How much of the source's frequency mass is explained by the
      // target's frequent values?
      double explained = 0.0;
      for (const auto& [value_s, freq_s] : source.top_k.top_values) {
        for (const auto& [value_t, freq_t] : target.top_k.top_values) {
          if (value_s == value_t) {
            explained += freq_s;
            break;
          }
        }
      }
      double denominator = source.top_k.coverage;
      return denominator < kEpsilon ? 1.0
                                    : std::min(1.0, explained / denominator);
    }
    case StatisticType::kFillStatus:
    case StatisticType::kConstancy:
      return 1.0;
  }
  return 1.0;
}

double OverallFit(const AttributeStatistics& source,
                  const AttributeStatistics& target) {
  double weighted = 0.0;
  double weight_sum = 0.0;
  for (StatisticType type : ApplicableStatistics(target.evaluated_against)) {
    double importance = ImportanceScore(type, target);
    if (importance < kEpsilon) continue;
    weighted += importance * FitValue(type, source, target);
    weight_sum += importance;
  }
  if (weight_sum < kEpsilon) return 1.0;
  double fit = weighted / weight_sum;
  // Small-sample confidence shrinkage towards 1: with few values, two
  // samples of the *same* population produce noisy statistics whose fit
  // falls short of 1 by O(1/sqrt(n)). Without this, tiny identical
  // attributes get flagged as heterogeneous; with it, genuinely different
  // representations (fit far below the threshold) are still caught.
  size_t n = std::min(source.constancy.non_null_count,
                      target.constancy.non_null_count);
  if (n > 0) {
    double shrink = std::min(1.0, 3.0 / std::sqrt(static_cast<double>(n)));
    fit += (1.0 - fit) * shrink;
  }
  return fit;
}

std::string AttributeStatistics::ToString() const {
  std::ostringstream oss;
  oss << "statistics (vs " << DataTypeToString(evaluated_against) << ")\n";
  oss << "  fill: " << fill_status.total_count << " rows, "
      << fill_status.null_count << " null, " << fill_status.uncastable_count
      << " uncastable (fill " << FormatDouble(fill_status.FillFraction(), 4)
      << ")\n";
  oss << "  constancy: " << FormatDouble(constancy.constancy, 4) << " ("
      << constancy.distinct_count << " distinct / "
      << constancy.non_null_count << " values)\n";
  if (text_pattern.has_value() && !text_pattern->patterns.empty()) {
    oss << "  patterns:";
    size_t shown = 0;
    for (const auto& [pattern, freq] : text_pattern->patterns) {
      if (shown++ == 3) break;
      oss << " [" << pattern << "] " << FormatDouble(freq, 3);
    }
    oss << "\n";
  }
  if (string_length.has_value()) {
    oss << "  string length: mean " << FormatDouble(string_length->mean, 4)
        << " stddev " << FormatDouble(string_length->stddev, 4) << "\n";
  }
  if (mean.has_value()) {
    oss << "  mean: " << FormatDouble(mean->mean, 6) << " stddev "
        << FormatDouble(mean->stddev, 6) << "\n";
  }
  if (value_range.has_value()) {
    oss << "  range: [" << FormatDouble(value_range->min, 6) << ", "
        << FormatDouble(value_range->max, 6) << "]\n";
  }
  if (!top_k.top_values.empty()) {
    oss << "  top values (coverage " << FormatDouble(top_k.coverage, 3)
        << "):";
    size_t shown = 0;
    for (const auto& [value, freq] : top_k.top_values) {
      if (shown++ == 3) break;
      oss << " " << value.ToString() << " (" << FormatDouble(freq, 3) << ")";
    }
    oss << "\n";
  }
  return oss.str();
}

}  // namespace efes
