// Counter snapshots and the per-layer metrics of a traced run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

/// Counters read at one instant, from the owning threads where they are
/// plain fields (node stats) and from the atomics otherwise.
struct Counters {
    std::int64_t t_ns = 0;
    double process_cpu_ms = 0;  ///< user + sys of the whole process
    double plane_cpu_ms = 0;    ///< plane reactor thread
    double client_cpu_ms = 0;   ///< client reactor thread

    // transport (both reactors summed)
    double frames_out = 0, bytes_out = 0, syscalls = 0;
    double recv_batch_sum = 0, recv_batch_count = 0;
    double pool_hits = 0, pool_misses = 0, backlog_drops = 0, eagain = 0;

    // discovery::Bdn (all BDNs summed)
    double bdn_requests = 0, bdn_duplicates = 0, bdn_shed = 0, bdn_injections = 0;
    double bdn_gathers = 0, bdn_gathers_partial = 0, bdn_queue_peak = 0;

    // BrokerDiscoveryPlugin (all brokers summed)
    double plugin_seen = 0, plugin_duplicates = 0;

    // SecurityContext: the BDN's, and the client identities' summed
    double bdn_session_hits = 0, bdn_session_misses = 0, bdn_evictions = 0;
    double client_handshakes = 0;

    // synthetic-ad sink
    double sink_injections = 0;
};

Counters snapshot(Plane& plane);

/// Successful discoveries per second between two snapshots.
double discoveries_per_s(const Generator& generator, const Counters& from, const Counters& to);

struct LayerInputs {
    Plane& plane;
    const Pki* pki;
    const Generator& generator;
    Counters untraced_from, untraced_to;  ///< counters and rates: untraced window
    Counters traced_from, traced_to;      ///< spans: traced window
};

/// Every per-layer metric (0 where a layer does no work in the workload).
std::vector<Metric> layer_metrics(const LayerInputs& in);

/// Write every recorded span as tab-separated text.
bool write_spans(const Tracer& tracer, const std::string& path);

}  // namespace perfbench
