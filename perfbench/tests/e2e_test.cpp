// End-to-end accounting: the completion record the generator fills and the
// window metrics computed from it.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "e2e.hpp"

namespace perfbench {
namespace {

constexpr std::int64_t kMs = 1'000'000;
constexpr std::int64_t kS = 1000 * kMs;

const Metric& find(const EndToEnd& e2e, const std::string& name) {
    for (const Metric& m : e2e.metrics) {
        if (m.name == name) return m;
    }
    throw std::runtime_error("no metric " + name);
}

/// `per_slice` successes of 1 ms in each of `slices` one-second slices,
/// each slice costing `cpu_ms` of process CPU time.
struct Window {
    std::vector<Completion> completions;
    std::vector<SliceMark> marks;
};

Window steady(int slices, int per_slice, double cpu_ms) {
    Window w;
    for (int s = 0; s <= slices; ++s) w.marks.push_back({s * kS, s * cpu_ms});
    for (int s = 0; s < slices; ++s) {
        for (int i = 0; i < per_slice; ++i) {
            const std::int64_t done = s * kS + (i + 1) * (kS / (per_slice + 1));
            w.completions.push_back(make_completion(done - kMs, done, 8, true, true));
        }
    }
    return w;
}

TEST(Completion, LatencyRunsFromTheDiscoverCallToTheCallback) {
    const Completion c = make_completion(10 * kMs, 12 * kMs + 500'000, 8, true, true);
    EXPECT_EQ(c.done_ns, 12 * kMs + 500'000);
    EXPECT_FLOAT_EQ(c.latency_ms, 2.5f);
    EXPECT_EQ(c.responses, 8);
    EXPECT_TRUE(c.ok);
}

TEST(EndToEnd, RatesAndCostsAreSliceMedians) {
    Window w = steady(5, 1000, 250.0);
    const EndToEnd e2e = end_to_end(w.completions, w.marks, 1000);
    EXPECT_EQ(e2e.attempted, 5000u);
    EXPECT_EQ(e2e.failed, 0u);
    EXPECT_EQ(e2e.responses, 40000u);
    EXPECT_TRUE(e2e.tail_ok);
    EXPECT_DOUBLE_EQ(find(e2e, "discoveries_per_s").value, 1000.0);
    EXPECT_DOUBLE_EQ(find(e2e, "cpu_ms_per_discovery").value, 0.25);
    EXPECT_NEAR(find(e2e, "discovery_p50_ms").value, 1.0, 1e-6);
    EXPECT_NEAR(find(e2e, "discovery_p99_ms").value, 1.0, 1e-6);
}

TEST(EndToEnd, CompletionsOutsideTheWindowAreNotCounted) {
    Window w = steady(3, 1000, 100.0);
    w.completions.push_back(make_completion(-2 * kMs, -kMs, 8, false, true));
    w.completions.push_back(make_completion(3 * kS, 3 * kS + kMs, 8, false, true));
    const EndToEnd e2e = end_to_end(w.completions, w.marks, 1000);
    EXPECT_EQ(e2e.attempted, 3000u);
    EXPECT_EQ(e2e.failed, 0u);
}

TEST(EndToEnd, FailedDiscoveryMissesTheLatencyLimit) {
    Window w = steady(2, 1000, 100.0);
    // Thirty failures (1.5 %) in the first slice: a failure is attempted,
    // is no success, and sits above every latency, so the p99 of its group
    // is infinite and the run's p99 is not reportable.
    for (int i = 0; i < 30; ++i) {
        w.completions.push_back(make_completion(kS / 2 - 10 * kMs, kS / 2, 0, false, true));
    }
    const EndToEnd e2e = end_to_end(w.completions, w.marks, 2000);
    EXPECT_EQ(e2e.attempted, 2030u);
    EXPECT_EQ(e2e.failed, 30u);
    EXPECT_EQ(e2e.successes, 2000u);
    EXPECT_DOUBLE_EQ(find(e2e, "discoveries_per_s").value, 1000.0);
    EXPECT_TRUE(std::isinf(find(e2e, "discovery_p99_ms").value));
    EXPECT_FALSE(e2e.tail_ok);
}

TEST(EndToEnd, OneSlowSliceMovesOneSliceOnly) {
    Window w = steady(5, 1000, 100.0);
    for (Completion& c : w.completions) {
        if (c.done_ns >= 2 * kS && c.done_ns < 3 * kS) c.latency_ms = 50.0f;
    }
    const EndToEnd e2e = end_to_end(w.completions, w.marks, 1000);
    EXPECT_NEAR(find(e2e, "discovery_p50_ms").value, 1.0, 1e-6);
    EXPECT_NEAR(find(e2e, "discovery_p99_ms").value, 1.0, 1e-6);
}

}  // namespace
}  // namespace perfbench
