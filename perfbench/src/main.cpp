// End-to-end broker discovery over real loopback sockets.
//
//   perfbench_e2e --workload <star_plain|registry_10k|sealed_churn>
//                 --seed <n> --seconds <s> --trace <0|1> [--span-file <path>]
//
// --trace 0 sets the plane up several times (reporting the median set-up
// time), then measures the end-to-end metrics with the benchmark tracer
// off. --trace 1 sets up once, measures half the time untraced and half
// traced, and reports the per-layer metrics plus the tracing overhead.
// Every result is checked (the correctness gate) and stamped with the
// machine; the last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when the gate holds.
#include <malloc.h>
#include <sys/resource.h>
#include <sys/utsname.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <span>
#include <string>
#include <thread>

#include "crypto/aes.hpp"
#include "e2e.hpp"
#include "layers.hpp"
#include "obs/json.hpp"
#include "stats.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    std::string span_file;
};

bool parse(int argc, char** argv, Args& args) {
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        try {
            if (key == "--workload") {
                args.workload = value;
            } else if (key == "--seed") {
                args.seed = std::stoull(value);
            } else if (key == "--seconds") {
                args.seconds = std::stod(value);
            } else if (key == "--trace") {
                args.trace = std::stoi(value);
            } else if (key == "--span-file") {
                args.span_file = value;
            } else {
                return false;
            }
        } catch (const std::exception&) {
            return false;
        }
    }
    return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0 &&
           (args.trace == 0 || args.trace == 1);
}

void sleep_s(double s) { std::this_thread::sleep_for(std::chrono::duration<double>(s)); }

std::string machine_stamp() {
    utsname uts{};
    uname(&uts);
    narada::obs::JsonWriter w;
    w.begin_object()
        .field("cores", static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
        .field("aesni", narada::crypto::Aes128::accelerated())
        .field("kernel", std::string(uts.sysname) + " " + uts.release)
        .field("compiler", PERFBENCH_COMPILER)
        .field("build_type", PERFBENCH_BUILD_TYPE)
        .end_object();
    return w.take();
}

std::string number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void print_metric(const Metric& m) {
    std::printf("metric %-40s %16.6f %-6s n=%zu\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples);
}

/// The final line: exactly the keys the result format fixes.
void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted);
    line += ", \"failed\": " + std::to_string(failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0) line += ", ";
        line += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
                ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

/// Samples per p99 group: the fewest that leave ten beyond the p99.
constexpr std::size_t kTailGroup = 1000;

/// Forget the peak resident set so far (the extra set-ups), so the peak read
/// at the end belongs to the measured plane. False where the kernel lacks it.
bool reset_peak_rss() {
    malloc_trim(0);
    std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
    if (f == nullptr) return false;
    const bool ok = std::fputs("5", f) >= 0;
    return std::fclose(f) == 0 && ok;
}

/// Peak resident set in MB: VmHWM, or the process-lifetime maximum.
double peak_rss_mb() {
    if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        while (std::fgets(line, sizeof line, f) != nullptr) {
            unsigned long kb = 0;
            if (std::sscanf(line, "VmHWM: %lu kB", &kb) == 1) {
                std::fclose(f);
                return static_cast<double>(kb) / 1024.0;
            }
        }
        std::fclose(f);
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct Setup {
    std::unique_ptr<Pki> pki;
    std::unique_ptr<Plane> plane;
};

/// Key generation, node start, registration and registry convergence.
double set_up(const WorkloadSpec& spec, std::uint64_t seed, Setup& setup) {
    setup.plane.reset();
    setup.pki.reset();
    malloc_trim(0);
    const std::int64_t t0 = mono_ns();
    if (spec.sealed) setup.pki = std::make_unique<Pki>(Pki::generate(spec.identities));
    setup.plane = std::make_unique<Plane>(spec, seed, setup.pki.get());
    setup.plane->converge();
    return static_cast<double>(mono_ns() - t0) / 1e9;
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    if (!parse(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench_e2e --workload <name> --seed <n> --seconds <s> "
                     "--trace <0|1> [--span-file <path>]\n");
        return 2;
    }
    const auto spec = find_workload(args.workload);
    if (!spec) {
        std::fprintf(stderr, "unknown workload '%s' (star_plain, registry_10k, sealed_churn)\n",
                     args.workload.c_str());
        return 2;
    }
    std::printf("PERFBENCH_STAMP %s\n", machine_stamp().c_str());
    std::printf("workload %s seed %llu seconds %g trace %d\n", spec->name.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds, args.trace);

    Setup setup;
    std::vector<double> setup_times;
    try {
        const int setups = args.trace == 0 ? spec->setups : 1;
        for (int i = 0; i < setups; ++i) setup_times.push_back(set_up(*spec, args.seed, setup));
    } catch (const std::exception& e) {
        std::printf("GATE VIOLATED: set-up failed: %s\n", e.what());
        return 1;
    }
    Plane& plane = *setup.plane;
    if (spec->synthetic_ads > 0) {
        std::printf("registry converged: %llu entries across %zu BDNs (R=%u x %zu ads)\n",
                    static_cast<unsigned long long>(plane.expected_registry_total()),
                    spec->bdns, spec->replication, spec->synthetic_ads + spec->brokers);
    }

    if (!reset_peak_rss()) std::printf("note: peak RSS includes the extra set-ups\n");
    Generator generator(plane, args.seed, /*details=*/args.trace == 1);
    generator.start();
    sleep_s(1.0);  // warm-up: pools, socket buffers, session caches

    // The untraced window, read in one-second slices.
    const double window = args.trace == 0 ? args.seconds : args.seconds / 2;
    const int slice_count = std::max(1, static_cast<int>(std::lround(window)));
    std::vector<Counters> slices{snapshot(plane)};
    for (int i = 1; i <= slice_count; ++i) {
        const std::int64_t until =
            slices.front().t_ns + static_cast<std::int64_t>(window * 1e9 * i / slice_count);
        sleep_s(static_cast<double>(std::max<std::int64_t>(0, until - mono_ns())) / 1e9);
        slices.push_back(snapshot(plane));
    }
    const Counters& a0 = slices.front();
    const Counters& a1 = slices.back();
    Counters b0, b1;
    if (args.trace == 1) {
        generator.keep_candidates(true);
        plane.tracer().set_tracing(true);
        b0 = snapshot(plane);
        const std::int64_t end = b0.t_ns + static_cast<std::int64_t>(window * 1e9);
        while (mono_ns() < end && !plane.tracer().saturated()) sleep_s(0.01);
        b1 = snapshot(plane);
        plane.tracer().set_tracing(false);
    }
    generator.stop();
    plane.teardown();

    // --- the correctness gate --------------------------------------------------
    std::vector<std::string> violations;
    for (const Completion& r : generator.completions()) {
        if (r.ok && !r.gate_ok) {
            violations.push_back("a discovery selected a non-broker or missed a broker's response");
            break;
        }
    }
    std::vector<SliceMark> marks;
    for (const Counters& c : slices) marks.push_back({c.t_ns, c.process_cpu_ms});
    const EndToEnd e2e = end_to_end(generator.completions(), marks, kTailGroup);
    if (e2e.successes == 0) violations.push_back("no discovery succeeded in the measured window");
    if (args.trace == 0 && !e2e.tail_ok) {
        violations.push_back("p99 not reportable: " + std::to_string(e2e.attempted) +
                             " samples, " + std::to_string(e2e.failed) + " failed");
    }
    const double handshakes = e2e.successes > 0
        ? (a1.client_handshakes - a0.client_handshakes) / static_cast<double>(e2e.successes)
        : 0.0;
    if (spec->sealed && !(handshakes > 0.0 && handshakes < 1.0)) {
        violations.push_back("sealed_churn: handshakes per discovery " + number(handshakes) +
                             " outside (0, 1)");
    }

    std::vector<Metric> metrics;
    if (args.trace == 0) {
        metrics = e2e.metrics;
        // The generator's completion buffer is resident from the start (every
        // page touched); it is the benchmark's memory, not the plane's.
        const double bookkeeping_mb = static_cast<double>(generator.completion_bytes()) / 1048576.0;
        metrics.push_back({"peak_rss_mb", peak_rss_mb() - bookkeeping_mb, "MB", 1});
        metrics.push_back({"setup_s", median(setup_times), "s", setup_times.size()});
        // Printed for the reader; not part of the result object because a
        // passing run pins them (0 failures, every response collected).
        const double attempted = static_cast<double>(e2e.attempted);
        print_metric({"fail_ratio", attempted > 0 ? static_cast<double>(e2e.failed) / attempted : 0.0,
                      "ratio", e2e.attempted});
        print_metric({"response_ratio",
                      attempted > 0 ? static_cast<double>(e2e.responses) /
                                          (attempted * static_cast<double>(spec->brokers))
                                    : 0.0,
                      "ratio", e2e.attempted * spec->brokers});
    } else {
        metrics = layer_metrics({plane, setup.pki.get(), generator, a0, a1, b0, b1});
        if (!args.span_file.empty() && !write_spans(plane.tracer(), args.span_file)) {
            std::printf("warning: could not write spans to %s\n", args.span_file.c_str());
        }
    }
    for (const Metric& m : metrics) print_metric(m);
    for (const std::string& v : violations) std::printf("GATE VIOLATED: %s\n", v.c_str());
    if (violations.empty()) {
        std::printf("gate: ok (%zu discoveries checked)\n", generator.completions().size());
    }
    print_result(violations.empty(), e2e.attempted, e2e.failed, metrics);
    return violations.empty() ? 0 : 1;
}
