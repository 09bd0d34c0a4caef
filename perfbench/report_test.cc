// Pins the benchmark's reporting rules: nearest-rank percentiles, the
// censoring of unfinished transfers, medians, metric-name and unit
// patterns, and JSON number output.
#include "report.h"

#include <cmath>
#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(percentile(v, 50.0), 50.0);
  EXPECT_EQ(percentile(v, 99.0), 99.0);
  EXPECT_EQ(percentile(v, 100.0), 100.0);
  EXPECT_EQ(percentile({3.0, 1.0, 2.0}, 50.0), 2.0);  // input order free
  EXPECT_EQ(percentile({7.0}, 99.0), 7.0);
}

TEST(Percentile, UndefinedInputs) {
  EXPECT_FALSE(percentile({}, 50.0));
  EXPECT_FALSE(percentile({1.0}, 0.0));
  EXPECT_FALSE(percentile({1.0}, 101.0));
}

TEST(Percentile, CensoredSamplesLieBeyondEveryLimit) {
  // 98 finished transfers and 2 unfinished: p98 is a number, p99 lands on
  // a censored transfer and is undefined rather than 0 or the largest
  // finished time.
  std::vector<double> fct;
  for (int i = 1; i <= 98; ++i) fct.push_back(i);
  fct.push_back(completion_time(10.0, -1.0));
  fct.push_back(completion_time(20.0, -1.0));
  EXPECT_EQ(percentile(fct, 98.0), 98.0);
  EXPECT_FALSE(percentile(fct, 99.0));
  EXPECT_EQ(beyond_percentile(fct, 98.0), 2u);
  EXPECT_EQ(beyond_percentile(fct, 99.0), 0u);
}

TEST(CompletionTime, MeasuredFromScheduledStart) {
  EXPECT_DOUBLE_EQ(completion_time(12.5, 40.0), 27.5);
  EXPECT_TRUE(std::isinf(completion_time(12.5, -1.0)));
  EXPECT_EQ(completion_time(0.0, 0.0), 0.0);  // finished at t=0 is finished
}

TEST(BeyondPercentile, CountsTheTail) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_EQ(beyond_percentile(v, 99.0), 10u);
  EXPECT_EQ(beyond_percentile({}, 99.0), 0u);
}

TEST(Median, OddEvenEmpty) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_FALSE(median({}));
}

TEST(MetricName, Pattern) {
  EXPECT_TRUE(valid_metric_name("wall_s"));
  EXPECT_TRUE(valid_metric_name("mac.recolor_share"));
  EXPECT_TRUE(valid_metric_name("9lives-ok"));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("_leading"));
  EXPECT_FALSE(valid_metric_name(".leading"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/no"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

TEST(Unit, Pattern) {
  EXPECT_TRUE(valid_unit("ms"));
  EXPECT_TRUE(valid_unit("kbit/s"));
  EXPECT_TRUE(valid_unit("uJ/bit"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_FALSE(valid_unit(""));
  EXPECT_FALSE(valid_unit("µJ/bit"));
  EXPECT_FALSE(valid_unit("way_too_long_unit"));
}

TEST(Json, NumbersAndStrings) {
  EXPECT_EQ(json_number(0.1), "0.10000000000000001");
  EXPECT_EQ(json_number(std::nan("")), "null");
  EXPECT_EQ(json_number(std::optional<double>()), "null");
  EXPECT_EQ(json_number(std::optional<double>(2.0)), "2");
  EXPECT_EQ(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
}

}  // namespace
}  // namespace perfbench
