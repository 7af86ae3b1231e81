// End-to-end accounting: the record each discovery leaves, and the
// end-to-end metrics of a measured window cut into one-second slices.
//
// Both are plain functions over plain data so the benchmark's own tests
// run the same code that fills the reported figures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;  ///< sample count behind the value (0 = a count)
};

/// The part of a discovery every run keeps: fixed size, in storage that is
/// allocated and touched before the measurement, so the benchmark's own
/// bookkeeping does not grow with the throughput it measures.
struct Completion {
    std::int64_t done_ns = 0;
    float latency_ms = 0;  ///< from the discover() call to the callback
    std::uint16_t responses = 0;
    bool ok = false;
    bool gate_ok = true;
};

/// The record of a discovery issued at `issue_ns` whose callback ran at
/// `done_ns`.
inline Completion make_completion(std::int64_t issue_ns, std::int64_t done_ns,
                                  std::uint32_t responses, bool ok, bool gate_ok) {
    return {done_ns, static_cast<float>(static_cast<double>(done_ns - issue_ns) / 1e6),
            static_cast<std::uint16_t>(responses), ok, gate_ok};
}

/// A slice boundary of the measured window: its time and the process CPU
/// time used so far.
struct SliceMark {
    std::int64_t t_ns = 0;
    double process_cpu_ms = 0;
};

struct EndToEnd {
    std::vector<Metric> metrics;
    std::size_t attempted = 0, failed = 0, successes = 0, responses = 0;
    bool tail_ok = false;  ///< the p99 had ten samples beyond it, none a failure
};

/// End-to-end metrics of the discoveries that completed between the first
/// and the last mark. Rates and per-discovery costs are medians over the
/// slices, and the p99 the median over groups of at least `tail_group`
/// consecutive samples, so a brief stall of a shared machine moves one
/// slice rather than the result. A failure is a latency sample that misses
/// every limit, and is never a success.
inline EndToEnd end_to_end(std::span<const Completion> completions,
                           const std::vector<SliceMark>& marks, std::size_t tail_group) {
    EndToEnd out;
    if (marks.size() < 2) return out;
    const std::size_t n = marks.size() - 1;
    std::vector<LatencySet> latency(n);
    std::vector<std::size_t> ok(n, 0);
    for (const Completion& r : completions) {
        if (r.done_ns < marks.front().t_ns || r.done_ns >= marks.back().t_ns) continue;
        std::size_t s = 0;
        while (r.done_ns >= marks[s + 1].t_ns) ++s;
        ++out.attempted;
        out.responses += r.responses;
        if (r.ok) {
            ++ok[s];
            latency[s].add(r.latency_ms);
        } else {
            ++out.failed;
            latency[s].add_failure();
        }
    }
    std::vector<double> dps, cpu, p50;
    for (std::size_t s = 0; s < n; ++s) {
        out.successes += ok[s];
        const double dt = static_cast<double>(marks[s + 1].t_ns - marks[s].t_ns) / 1e9;
        dps.push_back(static_cast<double>(ok[s]) / dt);
        if (ok[s] > 0) {
            cpu.push_back((marks[s + 1].process_cpu_ms - marks[s].process_cpu_ms) /
                          static_cast<double>(ok[s]));
        }
        if (latency[s].size() > 0) p50.push_back(latency[s].summary().p50);
    }
    const GroupedTail tail = grouped_p99(latency, tail_group);
    out.tail_ok = tail.ok;
    out.metrics = {
        {"discoveries_per_s", median(dps), "1/s", out.successes},
        {"discovery_p50_ms", median(p50), "ms", out.attempted},
        {"discovery_p99_ms", tail.value, "ms", out.attempted},
        {"cpu_ms_per_discovery", median(cpu), "ms", out.successes},
    };
    return out;
}

}  // namespace perfbench
