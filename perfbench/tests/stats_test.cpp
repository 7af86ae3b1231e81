// The reporting rule: the median plus the highest percentile that keeps at
// least ten samples beyond it, with failures counted as missing any limit.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats.hpp"

namespace perfbench {
namespace {

LatencySet ramp(int n) {
    LatencySet set;
    for (int i = 1; i <= n; ++i) set.add(i);
    return set;
}

TEST(TailRule, PicksHighestPercentileWithTenSamplesBeyond) {
    EXPECT_EQ(tail_percentile(1000), 99.0);   // rank 990, 10 beyond
    EXPECT_EQ(tail_percentile(999), 95.0);    // p99 rank 990 leaves 9
    EXPECT_EQ(tail_percentile(10000, 99.9), 99.9);
    EXPECT_EQ(tail_percentile(9999, 99.9), 99.0);
    EXPECT_EQ(tail_percentile(100), 90.0);    // rank 90, 10 beyond
    EXPECT_EQ(tail_percentile(40), 75.0);     // rank 30, 10 beyond
    EXPECT_EQ(tail_percentile(20), 50.0);
    EXPECT_EQ(tail_percentile(19), 0.0);      // nothing reportable
}

TEST(TailRule, SummaryReportsThePickedPercentileAndCount) {
    const LatencySummary s = ramp(1000).summary();
    EXPECT_EQ(s.samples, 1000u);
    EXPECT_EQ(s.p50, 500.0);
    EXPECT_EQ(s.tail_pct, 99.0);
    EXPECT_EQ(s.tail, 990.0);

    const LatencySummary small = ramp(100).summary();
    EXPECT_EQ(small.tail_pct, 90.0);
    EXPECT_EQ(small.tail, 90.0);
}

TEST(TailRule, NeverReportsAboveTheCap) {
    EXPECT_EQ(ramp(100000).summary().tail_pct, 99.0);
    EXPECT_EQ(ramp(100000).summary(99.9).tail_pct, 99.9);
}

TEST(Failures, CountAsMissingTheLatencyLimit) {
    // Eleven failures sit beyond the p99 rank: the tail becomes infinite
    // however fast the successes were.
    LatencySet fast;
    for (int i = 0; i < 989; ++i) fast.add(1.0);
    for (int i = 0; i < 11; ++i) fast.add_failure();
    const LatencySummary s = fast.summary();
    EXPECT_EQ(s.samples, 1000u);
    EXPECT_EQ(s.failures, 11u);
    EXPECT_EQ(s.tail_pct, 99.0);
    EXPECT_TRUE(std::isinf(s.tail));

    LatencySet clean;
    for (int i = 0; i < 1000; ++i) clean.add(1.0);
    EXPECT_EQ(clean.summary().tail, 1.0);
}

TEST(GroupedP99, EveryGroupReportsAP99) {
    // 7 slices of 400 samples: groups of >= 1000 form as 3 + 3 slices, and
    // the seventh slice joins the last group instead of standing alone.
    std::vector<LatencySet> slices(7);
    for (auto& slice : slices) {
        for (int i = 1; i <= 400; ++i) slice.add(i);
    }
    const GroupedTail tail = grouped_p99(slices, 1000);
    EXPECT_TRUE(tail.ok);
    EXPECT_EQ(tail.value, 396.0);  // p99 of three or four copies of 1..400
}

TEST(GroupedP99, OneSlowStretchMovesOneGroupOnly) {
    std::vector<LatencySet> slices(5);
    for (std::size_t s = 0; s < slices.size(); ++s) {
        for (int i = 0; i < 1000; ++i) slices[s].add(s == 2 ? 100.0 : 1.0);
    }
    EXPECT_EQ(grouped_p99(slices, 1000).value, 1.0);
}

TEST(GroupedP99, TooFewSamplesOrFailuresAreNotReportable) {
    std::vector<LatencySet> few(1);
    for (int i = 0; i < 500; ++i) few[0].add(1.0);
    EXPECT_FALSE(grouped_p99(few, 1000).ok);

    std::vector<LatencySet> failing(1);
    for (int i = 0; i < 980; ++i) failing[0].add(1.0);
    for (int i = 0; i < 20; ++i) failing[0].add_failure();
    EXPECT_FALSE(grouped_p99(failing, 1000).ok);
}

TEST(Median, OddAndEven) {
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

}  // namespace
}  // namespace perfbench
