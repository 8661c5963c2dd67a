#include "efes/common/string_util.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <set>
#include <sstream>

namespace efes {

std::vector<std::string> Split(std::string_view input, char delimiter) {
  std::vector<std::string> pieces;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(delimiter, start);
    if (pos == std::string_view::npos) {
      pieces.emplace_back(input.substr(start));
      break;
    }
    pieces.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return pieces;
}

std::string Join(const std::vector<std::string>& pieces,
                 std::string_view separator) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(separator);
    out.append(pieces[i]);
  }
  return out;
}

std::string_view Trim(std::string_view input) {
  // The "C" locale's isspace set, inline: Trim runs once per parsed cell.
  auto is_space = [](char c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
  };
  size_t begin = 0;
  size_t end = input.size();
  while (begin < end && is_space(input[begin])) ++begin;
  while (end > begin && is_space(input[end - 1])) --end;
  return input.substr(begin, end - begin);
}

std::string ToLower(std::string_view input) {
  std::string out(input);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.compare(0, prefix.size(), prefix) == 0;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

namespace {

/// Trimmed text that is at most this long is NUL-terminated on the stack
/// for strtoll/strtod; longer text falls back to a heap copy.
constexpr size_t kParseBufferSize = 64;

/// Calls `parse(c_str, size)` on a NUL-terminated copy of `text`.
template <typename Parse>
auto WithTerminatedCopy(std::string_view text, Parse parse) {
  if (text.size() < kParseBufferSize) {
    char buffer[kParseBufferSize];
    std::memcpy(buffer, text.data(), text.size());
    buffer[text.size()] = '\0';
    return parse(buffer, text.size());
  }
  std::string buffer(text);
  return parse(buffer.c_str(), buffer.size());
}

/// A plain decimal: sign, every digit as one integer, and how many of
/// those digits follow the point.
struct PlainDecimal {
  bool negative = false;
  uint64_t mantissa = 0;
  int fraction_digits = 0;
};

/// Reads `text` as an optional sign and at most `max_digits` decimal
/// digits, with a fraction when `allow_fraction`. Returns false (and
/// strtoll/strtod decide) for anything else, so the fast path only ever
/// sees input both functions read as plain decimal.
bool ReadPlainDecimal(std::string_view text, size_t max_digits,
                      bool allow_fraction, PlainDecimal* out) {
  size_t i = 0;
  if (i < text.size() && (text[i] == '+' || text[i] == '-')) {
    out->negative = text[i] == '-';
    ++i;
  }
  size_t digits = 0;
  size_t integer_digits = 0;
  bool seen_point = false;
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (c >= '0' && c <= '9') {
      if (++digits > max_digits) return false;
      out->mantissa = out->mantissa * 10 + static_cast<uint64_t>(c - '0');
      if (seen_point) {
        ++out->fraction_digits;
      } else {
        ++integer_digits;
      }
    } else if (c == '.' && allow_fraction && !seen_point) {
      seen_point = true;
    } else {
      return false;
    }
  }
  // "5." and ".5" parse under strtod but are left to it.
  return integer_digits > 0 && (!seen_point || out->fraction_digits > 0);
}

}  // namespace

std::optional<int64_t> ParseInt64(std::string_view text) {
  std::string_view trimmed = Trim(text);
  if (trimmed.empty()) return std::nullopt;
  // At most 18 digits cannot overflow int64, so the value is exact.
  PlainDecimal plain;
  if (ReadPlainDecimal(trimmed, 18, false, &plain)) {
    const auto magnitude = static_cast<int64_t>(plain.mantissa);
    return plain.negative ? -magnitude : magnitude;
  }
  return WithTerminatedCopy(
      trimmed, [](const char* begin, size_t size) -> std::optional<int64_t> {
        errno = 0;
        char* end = nullptr;
        long long value = std::strtoll(begin, &end, 10);
        if (errno == ERANGE || end != begin + size) return std::nullopt;
        return static_cast<int64_t>(value);
      });
}

std::optional<double> ParseDouble(std::string_view text) {
  std::string_view trimmed = Trim(text);
  if (trimmed.empty()) return std::nullopt;
  // At most 15 digits is below 2^53 and 10^15 is exact, so one IEEE
  // division is the correctly rounded result strtod returns too.
  PlainDecimal plain;
  if (ReadPlainDecimal(trimmed, 15, true, &plain)) {
    static constexpr double kPowersOfTen[] = {
        1e0, 1e1, 1e2,  1e3,  1e4,  1e5,  1e6,  1e7,
        1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15};
    const double magnitude = static_cast<double>(plain.mantissa) /
                             kPowersOfTen[plain.fraction_digits];
    return plain.negative ? -magnitude : magnitude;
  }
  return WithTerminatedCopy(
      trimmed, [](const char* begin, size_t size) -> std::optional<double> {
        errno = 0;
        char* end = nullptr;
        double value = std::strtod(begin, &end);
        if (errno == ERANGE || end != begin + size) return std::nullopt;
        return value;
      });
}

std::string FormatDouble(double value, int precision) {
  std::ostringstream oss;
  oss.precision(precision);
  oss << value;
  return oss.str();
}

size_t EditDistance(std::string_view a, std::string_view b) {
  if (a.size() < b.size()) std::swap(a, b);
  // b is now the shorter string; keep one rolling row of the DP matrix.
  std::vector<size_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diagonal = row[0];
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      size_t above = row[j];
      size_t substitution = diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
      row[j] = std::min({above + 1, row[j - 1] + 1, substitution});
      diagonal = above;
    }
  }
  return row[b.size()];
}

double NameSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  std::string la = ToLower(a);
  std::string lb = ToLower(b);
  size_t distance = EditDistance(la, lb);
  size_t longest = std::max(la.size(), lb.size());
  return 1.0 - static_cast<double>(distance) / static_cast<double>(longest);
}

std::vector<std::string> TokenizeIdentifier(std::string_view identifier) {
  std::vector<std::string> tokens;
  std::string current;
  auto flush = [&]() {
    if (!current.empty()) {
      tokens.push_back(current);
      current.clear();
    }
  };
  for (size_t i = 0; i < identifier.size(); ++i) {
    char c = identifier[i];
    if (c == '_' || c == '-' || c == ' ' || c == '.') {
      flush();
      continue;
    }
    // camelCase boundary: lower/digit followed by upper starts a new token.
    if (std::isupper(static_cast<unsigned char>(c)) && !current.empty() &&
        !std::isupper(static_cast<unsigned char>(current.back()))) {
      flush();
    }
    current.push_back(static_cast<char>(
        std::tolower(static_cast<unsigned char>(c))));
  }
  flush();
  return tokens;
}

double TokenJaccard(std::string_view a, std::string_view b) {
  std::vector<std::string> ta = TokenizeIdentifier(a);
  std::vector<std::string> tb = TokenizeIdentifier(b);
  if (ta.empty() && tb.empty()) return 1.0;
  std::set<std::string> sa(ta.begin(), ta.end());
  std::set<std::string> sb(tb.begin(), tb.end());
  size_t intersection = 0;
  for (const std::string& token : sa) {
    intersection += sb.count(token);
  }
  size_t union_size = sa.size() + sb.size() - intersection;
  if (union_size == 0) return 1.0;
  return static_cast<double>(intersection) /
         static_cast<double>(union_size);
}

}  // namespace efes
