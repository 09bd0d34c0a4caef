// Pure helpers of the benchmark driver: order statistics, the flow
// completion-time censoring rule, metric-name validation and a minimal
// JSON writer. Kept free of simulator types so report_test.cc can pin
// every rule on hand-made inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr double kCensored = std::numeric_limits<double>::infinity();

// Median of `v` (mean of the two middle values for an even count);
// nullopt for an empty input.
inline std::optional<double> median(std::vector<double> v) {
  if (v.empty()) return std::nullopt;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

// Nearest-rank percentile, p in (0, 100]: the ceil(p/100 * n)-th smallest
// value. nullopt for an empty input, and also when the rank lands on a
// censored (+inf) sample: the percentile is then beyond every limit the
// run observed, which is not a number.
inline std::optional<double> percentile(std::vector<double> v, double p) {
  if (v.empty() || !(p > 0.0) || p > 100.0) return std::nullopt;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size()) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  const double x = v[rank - 1];
  if (std::isinf(x)) return std::nullopt;
  return x;
}

// Samples strictly above the nearest-rank p-th percentile (censored
// samples included): how much evidence lies beyond a reported tail.
inline std::size_t beyond_percentile(std::vector<double> v, double p) {
  const auto q = percentile(v, p);
  if (!q) return 0;
  return static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(), [&](double x) { return x > *q; }));
}

// Completion time of one transfer, measured from its scheduled start.
// An unfinished transfer (completed_at < 0) is censored: it counts as
// beyond any limit.
inline double completion_time(double start_time, double completed_at) {
  return completed_at < 0.0 ? kCensored : completed_at - start_time;
}

// Metric names: a letter or digit, then letters, digits, '_', '.', '-';
// at most 64 characters.
inline bool valid_metric_name(const std::string& s) {
  if (s.empty() || s.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(s[0])) return false;
  return std::all_of(s.begin(), s.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

// Units: 1-16 of letters, digits, '_', '/', '%', '.', '-'.
inline bool valid_unit(const std::string& s) {
  if (s.empty() || s.size() > 16) return false;
  return std::all_of(s.begin(), s.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '/' || c == '%' ||
           c == '.' || c == '-';
  });
}

// --- JSON output --------------------------------------------------------

inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

// Round-trip (17 significant digits) form of a double; JSON has no inf/nan,
// so a non-finite value (an undefined metric) is written as null.
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

inline std::string json_number(std::optional<double> v) {
  return v ? json_number(*v) : "null";
}

}  // namespace perfbench
