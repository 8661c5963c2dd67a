#include "efes/profiling/sketch.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <optional>
#include <sstream>

#include "efes/cache/fingerprint.h"
#include "efes/common/string_util.h"

namespace efes {

namespace {

constexpr double kEpsilon = 1e-12;

/// The histogram bucket of a sample at `position` = (v - min) / width
/// bucket widths past the minimum. The position is NaN for a NaN sample,
/// and for every sample of an infinite range (the width is infinite):
/// those, like positions at or past the end, go to the last bucket, where
/// the unchecked size_t cast used to put them on x86-64.
size_t HistogramBucket(double position) {
  constexpr size_t kLast = HistogramStats::kBucketCount - 1;
  if (!(position < static_cast<double>(kLast))) return kLast;
  return position > 0.0 ? static_cast<size_t>(position) : 0;
}

/// Build-stable fixed overhead charged against the --max-memory budget
/// (deliberately not sizeof(StatisticsSketch): cached sketch state must
/// re-import under the same budget arithmetic across builds).
constexpr uint64_t kSketchFixedBytes = 256;

bool IsNumericTarget(DataType type) {
  return type == DataType::kInteger || type == DataType::kReal;
}

/// The numeric reading the legacy statistics used: numerics directly,
/// text only when it parses completely; booleans are not numeric. One
/// ParseDouble is what Value::CanCastTo(kReal) and CastTo both decide by.
std::optional<double> NumericOf(const Value& value) {
  switch (value.type()) {
    case DataType::kInteger:
    case DataType::kReal:
      return value.NumericValue();
    case DataType::kText:
      return ParseDouble(value.AsText());
    default:
      return std::nullopt;
  }
}

/// Budget cost of one tracked entry: slot + key/count overhead plus the
/// owned text bytes. A deterministic model, not malloc truth.
uint64_t EntryCost(const Value& value) {
  uint64_t cost = 64;
  if (value.type() == DataType::kText) cost += value.AsText().size();
  return cost;
}

uint64_t Fmix64(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

/// Slot-probe hash; equal values (Value::operator==) probe alike. Text
/// equality is byte equality, so the stored content hash serves; numerics
/// hash their double value with -0.0 folded into 0.0, because 3 == 3.0
/// and -0.0 == 0 although their content hashes differ. A NaN equals
/// nothing, so wherever it probes it appends its own entry.
uint64_t ProbeHash(const Value& value, uint64_t content_hash) {
  switch (value.type()) {
    case DataType::kInteger:
    case DataType::kReal: {
      double number = value.NumericValue();
      if (number == 0.0) number = 0.0;
      uint64_t bits = 0;
      std::memcpy(&bits, &number, sizeof(bits));
      return Fmix64(bits);
    }
    case DataType::kBoolean:
      return value.AsBoolean() ? 1 : 2;
    default:
      return content_hash;
  }
}

}  // namespace

std::string_view ApproximationModeToString(ApproximationMode mode) {
  switch (mode) {
    case ApproximationMode::kExact:
      return "exact";
    case ApproximationMode::kSketch:
      return "sketch";
    case ApproximationMode::kAuto:
      return "auto";
  }
  return "unknown";
}

Result<ApproximationMode> ParseApproximationMode(std::string_view text) {
  if (text == "exact") return ApproximationMode::kExact;
  if (text == "sketch") return ApproximationMode::kSketch;
  if (text == "auto") return ApproximationMode::kAuto;
  return Status::InvalidArgument("unknown approximation mode '" +
                                 std::string(text) +
                                 "' (expected exact, sketch, or auto)");
}

uint64_t SketchValueHash(const Value& value) {
  Fingerprinter fp;
  fp.MixValue(value);
  // The FNV digest has weak high-bit avalanche on short inputs (a few
  // multiplies cannot spread a one-byte difference into the top bits),
  // and the sampling rule keys on exactly those bits. A murmur-style
  // finalizer makes every digest bit diffuse; without it, small-integer
  // columns leave almost no survivors at level 1 and the distinct
  // estimate collapses.
  return Fmix64(fp.digest());
}

StatisticsSketch::StatisticsSketch(DataType target_type,
                                   const ProfileOptions& options)
    : target_type_(target_type), mode_(options.mode) {
  if (options.max_memory_bytes != 0) {
    cap_bytes_ = options.max_memory_bytes;
  } else if (mode_ != ApproximationMode::kExact) {
    cap_bytes_ = kDefaultSketchMemoryBytes;
  }
}

Status StatisticsSketch::Absorb(const Value& value) {
  ++total_count_;
  if (value.is_null()) {
    ++null_count_;
    return Status::OK();
  }
  std::optional<double> number;
  bool castable = false;
  if (IsNumericTarget(target_type_) && value.type() == DataType::kText) {
    // One ParseDouble gives both the numeric reading and real
    // castability; ParseInt64 runs only to decide integer castability.
    number = ParseDouble(value.AsText());
    castable = target_type_ == DataType::kReal
                   ? number.has_value()
                   : ParseInt64(value.AsText()).has_value();
  } else {
    castable = value.CanCastTo(target_type_);
    if (IsNumericTarget(target_type_)) number = NumericOf(value);
  }
  if (!castable) ++uncastable_count_;
  if (number) {
    if (numeric_count_ == 0) {
      numeric_min_ = numeric_max_ = *number;
    } else {
      numeric_min_ = std::min(numeric_min_, *number);
      numeric_max_ = std::max(numeric_max_, *number);
    }
    ++numeric_count_;
  }
  const uint64_t hash = SketchValueHash(value);
  if (!Tracks(hash)) return Status::OK();
  const size_t before = entries_.size();
  const size_t index = FindOrInsert(value, hash);
  ++entries_[index].count;
  return entries_.size() > before ? EnforceBudget() : Status::OK();
}

size_t StatisticsSketch::FindOrInsert(const Value& value, uint64_t hash) {
  if (2 * (entries_.size() + 1) > slots_.size()) {
    Rehash(std::max<size_t>(16, 2 * slots_.size()));
  }
  const size_t mask = slots_.size() - 1;
  const bool text = value.type() == DataType::kText;
  for (size_t i = ProbeHash(value, hash) & mask;; i = (i + 1) & mask) {
    const uint32_t slot = slots_[i];
    if (slot == kEmptySlot) {
      slots_[i] = static_cast<uint32_t>(entries_.size());
      tracked_bytes_ += EntryCost(value);
      entries_.push_back(Entry{value, 0, hash});
      return entries_.size() - 1;
    }
    const Entry& entry = entries_[slot];
    // Equal text has equal content hashes: compare bytes only then.
    if (text ? entry.hash == hash &&
                   entry.value.type() == DataType::kText &&
                   entry.value.AsText() == value.AsText()
             : entry.value == value) {
      return slot;
    }
  }
}

void StatisticsSketch::Rehash(size_t slot_count) {
  slots_.assign(slot_count, kEmptySlot);
  const size_t mask = slot_count - 1;
  for (size_t e = 0; e < entries_.size(); ++e) {
    size_t i = ProbeHash(entries_[e].value, entries_[e].hash) & mask;
    while (slots_[i] != kEmptySlot) i = (i + 1) & mask;
    slots_[i] = static_cast<uint32_t>(e);
  }
}

void StatisticsSketch::DropUntracked() {
  size_t kept = 0;
  for (size_t e = 0; e < entries_.size(); ++e) {
    if (!Tracks(entries_[e].hash)) {
      tracked_bytes_ -= EntryCost(entries_[e].value);
    } else {
      if (kept != e) entries_[kept] = std::move(entries_[e]);
      ++kept;
    }
  }
  entries_.resize(kept);
  Rehash(slots_.size());
}

Status StatisticsSketch::AbsorbRange(const std::vector<Value>& column,
                                     size_t begin, size_t end) {
  end = std::min(end, column.size());
  for (size_t i = begin; i < end; ++i) {
    EFES_RETURN_IF_ERROR(Absorb(column[i]));
  }
  return Status::OK();
}

Status StatisticsSketch::Merge(const StatisticsSketch& other) {
  if (other.target_type_ != target_type_ || other.mode_ != mode_ ||
      other.cap_bytes_ != cap_bytes_) {
    return Status::InvalidArgument(
        "cannot merge statistic sketches with different target types or "
        "profile options");
  }
  total_count_ += other.total_count_;
  null_count_ += other.null_count_;
  uncastable_count_ += other.uncastable_count_;
  if (other.numeric_count_ > 0) {
    if (numeric_count_ == 0) {
      numeric_min_ = other.numeric_min_;
      numeric_max_ = other.numeric_max_;
    } else {
      numeric_min_ = std::min(numeric_min_, other.numeric_min_);
      numeric_max_ = std::max(numeric_max_, other.numeric_max_);
    }
    numeric_count_ += other.numeric_count_;
  }
  if (other.level_ > level_) {
    // Adopt the coarser threshold, dropping our now-untracked values.
    level_ = other.level_;
    DropUntracked();
  }
  // By index: a self-merge may append (a NaN equals nothing).
  for (size_t e = 0, n = other.entries_.size(); e < n; ++e) {
    const uint64_t hash = other.entries_[e].hash;
    const uint64_t count = other.entries_[e].count;
    if (!Tracks(hash)) continue;
    entries_[FindOrInsert(other.entries_[e].value, hash)].count += count;
  }
  return EnforceBudget();
}

Status StatisticsSketch::EnforceBudget() {
  while (cap_bytes_ != 0 &&
         kSketchFixedBytes + tracked_bytes_ > cap_bytes_) {
    if (mode_ == ApproximationMode::kExact || level_ >= 63) {
      std::ostringstream oss;
      oss << "profiling an attribute exactly needs "
          << (kSketchFixedBytes + tracked_bytes_)
          << " bytes but the --max-memory budget is " << cap_bytes_
          << " bytes per sketch";
      if (mode_ == ApproximationMode::kExact) {
        oss << "; rerun with --approx=sketch or --approx=auto";
      }
      return Status::ResourceExhausted(oss.str());
    }
    ++level_;
    DropUntracked();
  }
  return Status::OK();
}

size_t StatisticsSketch::MemoryBytes() const {
  return static_cast<size_t>(kSketchFixedBytes + tracked_bytes_);
}

ApproximationMode StatisticsSketch::effective_mode() const {
  return level_ == 0 ? ApproximationMode::kExact : ApproximationMode::kSketch;
}

std::vector<uint32_t> StatisticsSketch::SortedEntries() const {
  // Sort contiguous keys: the first 8 bytes of a text value, big-endian
  // and zero-padded, order text exactly as its bytes do, and text sorts
  // above every other type, which all key 0. Only equal keys compare the
  // values themselves.
  struct Key {
    uint64_t prefix;
    uint32_t index;
  };
  std::vector<Key> keys(entries_.size());
  for (size_t e = 0; e < entries_.size(); ++e) {
    uint64_t prefix = 0;
    if (entries_[e].value.type() == DataType::kText) {
      const std::string& text = entries_[e].value.AsText();
      for (size_t i = 0; i < 8; ++i) {
        prefix = (prefix << 8) |
                 (i < text.size() ? static_cast<unsigned char>(text[i]) : 0);
      }
    }
    keys[e] = Key{prefix, static_cast<uint32_t>(e)};
  }
  std::sort(keys.begin(), keys.end(), [this](const Key& a, const Key& b) {
    if (a.prefix != b.prefix) return a.prefix < b.prefix;
    return entries_[a.index].value < entries_[b.index].value;
  });
  std::vector<uint32_t> order(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) order[i] = keys[i].index;
  return order;
}

AttributeStatistics StatisticsSketch::Finalize() const {
  AttributeStatistics stats;
  stats.evaluated_against = target_type_;

  // --- Fill status: exact counters in every mode. -------------------------
  stats.fill_status.total_count = static_cast<size_t>(total_count_);
  stats.fill_status.null_count = static_cast<size_t>(null_count_);
  stats.fill_status.uncastable_count = static_cast<size_t>(uncastable_count_);
  const uint64_t non_null = total_count_ - null_count_;

  // Canonical iteration order: entry indices sorted by value, whatever
  // order the values were inserted in. This is what makes Finalize a
  // pure function of the sketch state. Every pass below walks it once
  // and copies no value.
  const std::vector<uint32_t> sorted = SortedEntries();
  uint64_t sample_total = 0;
  for (const Entry& entry : entries_) sample_total += entry.count;

  // Inverse sampling rate: each distinct value is tracked with
  // probability 2^-level, with an exact count when it is.
  const double scale = std::ldexp(1.0, static_cast<int>(level_));
  uint64_t distinct_estimate = entries_.size();
  for (uint32_t l = 0; l < level_; ++l) {
    if (distinct_estimate > (UINT64_MAX >> 1)) break;
    distinct_estimate <<= 1;
  }

  // --- Constancy (inverse normalized entropy). ----------------------------
  stats.constancy.non_null_count = static_cast<size_t>(non_null);
  stats.constancy.distinct_count = static_cast<size_t>(distinct_estimate);
  if (non_null > 0 && distinct_estimate > 1) {
    double entropy = 0.0;
    for (uint32_t index : sorted) {
      double p = static_cast<double>(entries_[index].count) /
                 static_cast<double>(non_null);
      entropy -= p * std::log2(p);
    }
    entropy *= scale;
    double max_entropy = std::log2(static_cast<double>(non_null));
    stats.constancy.constancy =
        max_entropy < kEpsilon ? 1.0
                               : std::max(0.0, 1.0 - entropy / max_entropy);
  } else {
    stats.constancy.constancy = 1.0;  // empty or single-valued
  }

  // --- Top-k: tracked counts are exact global frequencies. Ranked by
  // (frequency desc, value asc) with a bounded insertion over the
  // canonical order: a later entry has the larger value, so it enters
  // only behind every kept entry at least as frequent. ---------------------
  {
    std::vector<std::pair<uint32_t, double>> best;  // (entry, frequency)
    best.reserve(TopKStats::kK + 1);
    for (uint32_t index : sorted) {
      const double freq =
          non_null == 0 ? 0.0
                        : static_cast<double>(entries_[index].count) /
                              static_cast<double>(non_null);
      if (best.size() == TopKStats::kK && !(freq > best.back().second)) {
        continue;
      }
      auto at = std::find_if(best.begin(), best.end(), [freq](const auto& b) {
        return freq > b.second;
      });
      best.insert(at, {index, freq});
      if (best.size() > TopKStats::kK) best.pop_back();
    }
    stats.top_k.top_values.reserve(best.size());
    stats.top_k.coverage = 0.0;
    for (const auto& [index, freq] : best) {
      stats.top_k.top_values.emplace_back(entries_[index].value, freq);
      stats.top_k.coverage += freq;
    }
  }

  // --- String-directed statistics (ratio estimates over the sample;
  // exact at level 0 where the sample is the whole column). Each
  // distinct value's text, pattern and length are computed once; text
  // values are read in place. --------------------------------------------
  if (target_type_ == DataType::kText) {
    std::map<std::string, uint64_t> pattern_counts;
    auto last_pattern = pattern_counts.end();
    // Flat 256-slot histogram instead of a tree map in the hot loop:
    // branch-free, cache-resident, and iterated over *distinct* values
    // only — duplicates cost one integer add, not a re-scan.
    std::array<uint64_t, 256> char_counts{};
    uint64_t total_chars = 0;
    double length_sum = 0.0;
    std::vector<size_t> lengths;
    lengths.reserve(sorted.size());
    std::string rendered;
    for (uint32_t index : sorted) {
      const Entry& entry = entries_[index];
      std::string_view text;
      if (entry.value.type() == DataType::kText) {
        text = entry.value.AsText();
      } else {
        rendered = entry.value.ToString();
        text = rendered;
      }
      // Neighbours in value order mostly share a pattern: reuse its node.
      std::string pattern = GeneralizeToPattern(text);
      if (last_pattern == pattern_counts.end() ||
          last_pattern->first != pattern) {
        last_pattern = pattern_counts.try_emplace(std::move(pattern)).first;
      }
      last_pattern->second += entry.count;
      for (unsigned char c : text) char_counts[c] += entry.count;
      total_chars += entry.count * text.size();
      length_sum += static_cast<double>(entry.count) *
                    static_cast<double>(text.size());
      lengths.push_back(text.size());
    }

    const double denom = static_cast<double>(sample_total);
    TextPatternStats pattern_stats;
    for (const auto& [pattern, count] : pattern_counts) {
      pattern_stats.patterns.emplace_back(
          pattern,
          sample_total == 0 ? 0.0 : static_cast<double>(count) / denom);
    }
    std::sort(pattern_stats.patterns.begin(), pattern_stats.patterns.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second > b.second;
                return a.first < b.first;
              });
    if (pattern_stats.patterns.size() > TextPatternStats::kMaxPatterns) {
      pattern_stats.patterns.resize(TextPatternStats::kMaxPatterns);
    }
    stats.text_pattern = std::move(pattern_stats);

    CharHistogramStats char_stats;
    for (size_t i = 0; i < char_counts.size(); ++i) {
      if (char_counts[i] == 0) continue;
      char_stats.frequencies[static_cast<char>(i)] =
          total_chars == 0 ? 0.0
                           : static_cast<double>(char_counts[i]) /
                                 static_cast<double>(total_chars);
    }
    stats.char_histogram = std::move(char_stats);

    double mean = sample_total == 0 ? 0.0 : length_sum / denom;
    double variance = 0.0;
    for (size_t i = 0; i < sorted.size(); ++i) {
      double d = static_cast<double>(lengths[i]) - mean;
      variance += static_cast<double>(entries_[sorted[i]].count) * d * d;
    }
    if (sample_total > 0) variance /= denom;
    stats.string_length = StringLengthStats{mean, std::sqrt(variance)};
  }

  // --- Numeric statistics: exact min/max scalars; moments and buckets
  // from the (exact-at-level-0) sample. ------------------------------------
  if (IsNumericTarget(target_type_) && numeric_count_ > 0) {
    std::vector<std::pair<double, uint64_t>> numbers;
    numbers.reserve(sorted.size());
    uint64_t sample_numeric = 0;
    for (uint32_t index : sorted) {
      const Entry& entry = entries_[index];
      if (std::optional<double> num = NumericOf(entry.value)) {
        numbers.emplace_back(*num, entry.count);
        sample_numeric += entry.count;
      }
    }
    const double denom = static_cast<double>(sample_numeric);
    double mean = 0.0;
    for (const auto& [v, count] : numbers) {
      mean += static_cast<double>(count) * v;
    }
    if (sample_numeric > 0) mean /= denom;
    double variance = 0.0;
    for (const auto& [v, count] : numbers) {
      variance += static_cast<double>(count) * (v - mean) * (v - mean);
    }
    if (sample_numeric > 0) variance /= denom;
    stats.mean = MeanStats{mean, std::sqrt(variance)};

    stats.value_range = ValueRangeStats{numeric_min_, numeric_max_};

    HistogramStats histogram;
    histogram.min = numeric_min_;
    histogram.max = numeric_max_;
    histogram.bucket_fractions.assign(HistogramStats::kBucketCount, 0.0);
    double width = (numeric_max_ - numeric_min_) / HistogramStats::kBucketCount;
    for (const auto& [v, count] : numbers) {
      size_t bucket =
          width < kEpsilon ? 0 : HistogramBucket((v - numeric_min_) / width);
      if (sample_numeric > 0) {
        histogram.bucket_fractions[bucket] +=
            static_cast<double>(count) / denom;
      }
    }
    stats.histogram = std::move(histogram);
  }

  return stats;
}

SketchState StatisticsSketch::ExportState() const {
  SketchState state;
  state.target_type = target_type_;
  state.mode = mode_;
  state.cap_bytes = cap_bytes_;
  state.level = level_;
  state.total_count = total_count_;
  state.null_count = null_count_;
  state.uncastable_count = uncastable_count_;
  state.numeric_count = numeric_count_;
  state.numeric_min = numeric_min_;
  state.numeric_max = numeric_max_;
  state.entries.reserve(entries_.size());
  for (uint32_t index : SortedEntries()) {
    state.entries.emplace_back(entries_[index].value, entries_[index].count);
  }
  return state;
}

Result<StatisticsSketch> StatisticsSketch::FromState(
    const SketchState& state) {
  if (state.mode != ApproximationMode::kExact &&
      state.mode != ApproximationMode::kSketch &&
      state.mode != ApproximationMode::kAuto) {
    return Status::InvalidArgument("sketch state has an unknown mode");
  }
  if (state.level > 63) {
    return Status::InvalidArgument("sketch state has an impossible level");
  }
  StatisticsSketch sketch;
  sketch.target_type_ = state.target_type;
  sketch.mode_ = state.mode;
  sketch.cap_bytes_ = state.cap_bytes;
  sketch.level_ = state.level;
  sketch.total_count_ = state.total_count;
  sketch.null_count_ = state.null_count;
  sketch.uncastable_count_ = state.uncastable_count;
  sketch.numeric_count_ = state.numeric_count;
  sketch.numeric_min_ = state.numeric_min;
  sketch.numeric_max_ = state.numeric_max;
  uint64_t non_null = 0;
  for (const auto& [value, count] : state.entries) {
    if (count == 0 || value.is_null()) {
      return Status::InvalidArgument("sketch state entry is degenerate");
    }
    const uint64_t hash = SketchValueHash(value);
    if (!sketch.Tracks(hash)) {
      return Status::InvalidArgument(
          "sketch state entry violates its sampling threshold");
    }
    const size_t before = sketch.entries_.size();
    const size_t index = sketch.FindOrInsert(value, hash);
    if (sketch.entries_.size() == before) {
      return Status::InvalidArgument("sketch state has duplicate entries");
    }
    sketch.entries_[index].count = count;
    non_null += count;
  }
  if (non_null > state.total_count - state.null_count ||
      state.null_count > state.total_count) {
    return Status::InvalidArgument("sketch state counters are inconsistent");
  }
  if (sketch.cap_bytes_ != 0 &&
      kSketchFixedBytes + sketch.tracked_bytes_ > sketch.cap_bytes_) {
    return Status::InvalidArgument("sketch state exceeds its own budget");
  }
  return sketch;
}

void ValueBloom::InsertHash(uint64_t hash) {
  // Three probes from independent 12-bit slices of the 64-bit hash.
  for (int probe = 0; probe < 3; ++probe) {
    uint64_t bit = (hash >> (probe * 12)) & 4095;
    bits_[bit >> 6] |= (1ull << (bit & 63));
  }
}

bool ValueBloom::MightContain(const Value& value) const {
  const uint64_t hash = SketchValueHash(value);
  for (int probe = 0; probe < 3; ++probe) {
    uint64_t bit = (hash >> (probe * 12)) & 4095;
    if ((bits_[bit >> 6] & (1ull << (bit & 63))) == 0) return false;
  }
  return true;
}

bool ValueBloom::SubsetOf(const ValueBloom& other) const {
  for (size_t i = 0; i < kWords; ++i) {
    if ((bits_[i] & ~other.bits_[i]) != 0) return false;
  }
  return true;
}

void ValueBloom::MergeFrom(const ValueBloom& other) {
  for (size_t i = 0; i < kWords; ++i) bits_[i] |= other.bits_[i];
}

}  // namespace efes
