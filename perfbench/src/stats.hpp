// Sample statistics for the benchmark's reports.
//
// Reporting rule (perfbench/README.md): a timing is reported as its median
// and the highest percentile that still has at least ten samples beyond
// it, together with the sample count. A failed operation is a sample too:
// it is recorded as +infinity, so it lands above every latency limit and
// pushes the tail up instead of silently shrinking the sample set.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace perfbench {

/// Percentiles the tail rule may pick from, highest first.
inline constexpr double kPercentileLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};

/// Samples required beyond a reported percentile.
inline constexpr std::size_t kSamplesBeyond = 10;

/// Nearest-rank position (1-based) of percentile `pct` among `n` samples.
inline std::size_t nearest_rank(std::size_t n, double pct) {
    if (n == 0) return 0;
    // The epsilon keeps binary rounding (99.9 / 100 * 10000 = 9990.000...02)
    // from pushing an exact rank up by one.
    const double exact = pct / 100.0 * static_cast<double>(n);
    const auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

/// The highest ladder percentile not above `cap` that leaves at least
/// kSamplesBeyond of `n` samples beyond it; 0 when even the median does not.
inline double tail_percentile(std::size_t n, double cap = 99.0) {
    for (const double pct : kPercentileLadder) {
        if (pct > cap) continue;
        if (n - nearest_rank(n, pct) >= kSamplesBeyond) return pct;
    }
    return 0.0;
}

/// Nearest-rank percentile of an ascending-sorted sample vector.
inline double percentile_sorted(const std::vector<double>& sorted, double pct) {
    if (sorted.empty()) return 0.0;
    return sorted[nearest_rank(sorted.size(), pct) - 1];
}

/// Median and rule-picked tail of one latency distribution.
struct LatencySummary {
    std::size_t samples = 0;   ///< successes + failures
    std::size_t failures = 0;  ///< recorded as +inf
    double p50 = 0.0;
    double tail_pct = 0.0;     ///< percentile the tail value is for (0 = none)
    double tail = 0.0;
};

/// Latency samples of one workload, in any unit.
class LatencySet {
public:
    void add(double value) { values_.push_back(value); }
    void add_failure() { values_.push_back(std::numeric_limits<double>::infinity()); }
    [[nodiscard]] std::size_t size() const { return values_.size(); }
    [[nodiscard]] const std::vector<double>& values() const { return values_; }

    /// Median plus the highest percentile (at most `cap`) the rule allows.
    [[nodiscard]] LatencySummary summary(double cap = 99.0) const {
        std::vector<double> sorted = values_;
        std::sort(sorted.begin(), sorted.end());
        LatencySummary s;
        s.samples = sorted.size();
        s.failures = static_cast<std::size_t>(std::count_if(
            sorted.begin(), sorted.end(), [](double v) { return std::isinf(v); }));
        s.p50 = percentile_sorted(sorted, 50.0);
        s.tail_pct = tail_percentile(sorted.size(), cap);
        s.tail = s.tail_pct > 0.0 ? percentile_sorted(sorted, s.tail_pct) : 0.0;
        return s;
    }

private:
    std::vector<double> values_;
};

/// Median of a small vector (mean of the middle pair when even).
inline double median(std::vector<double> values);

/// The p99 of a run cut into time slices: consecutive slices are grouped
/// until each group holds at least `group_size` samples (a short remainder
/// joins the last group), and the result is the median of the groups' p99s,
/// so one slow stretch moves one group rather than the result. `ok` is false
/// when some group could not report a p99 or a failure reached it.
struct GroupedTail {
    double value = 0.0;
    bool ok = false;
};

inline GroupedTail grouped_p99(const std::vector<LatencySet>& slices, std::size_t group_size) {
    std::vector<LatencySet> groups(1);
    for (const LatencySet& slice : slices) {
        if (groups.back().size() >= group_size) groups.emplace_back();
        for (double v : slice.values()) groups.back().add(v);
    }
    if (groups.size() > 1 && groups.back().size() < group_size) {
        for (double v : groups.back().values()) groups[groups.size() - 2].add(v);
        groups.pop_back();
    }
    GroupedTail out;
    out.ok = true;
    std::vector<double> tails;
    for (const LatencySet& group : groups) {
        const LatencySummary summary = group.summary(99.0);
        out.ok = out.ok && summary.tail_pct == 99.0 && !std::isinf(summary.tail);
        tails.push_back(summary.tail);
    }
    out.value = median(tails);
    return out;
}

/// Median of a small vector (mean of the middle pair when even).
inline double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace perfbench
