// The three workloads and the discovery plane they run against.
//
// One process, three threads: the plane (BDNs, brokers with their
// BrokerDiscoveryPlugin) on one PosixTransport reactor, the discovery
// clients, the load generator and the synthetic-ad sink on a second
// reactor, and the main thread orchestrating. Every node is built against
// its own NodePort (tracer.hpp). Modelled costs that are sleeps, not work
// (BrokerConfig::processing_delay, BdnConfig::injection_spacing and
// request_service_cost) are 0 everywhere.
#pragma once

#include <atomic>
#include <ctime>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "broker/broker.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "crypto/certificate.hpp"
#include "discovery/bdn.hpp"
#include "discovery/broker_plugin.hpp"
#include "discovery/client.hpp"
#include "discovery/security.hpp"
#include "e2e.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "timesvc/ntp.hpp"
#include "tracer.hpp"
#include "transport/posix_transport.hpp"

namespace perfbench {

struct WorkloadSpec {
    std::string name;
    std::size_t bdns = 1;
    std::size_t brokers = 8;
    std::size_t synthetic_ads = 0;    ///< registry entries pointing at the sink
    std::uint32_t replication = 1;    ///< R of the federated ring (bdns > 1)
    std::uint32_t ingest_queue_limit = 0;
    double program_trace_rate = 0.0;  ///< the client's own 1-in-N run sampling
    double ad_renewals_per_s = 0.0;
    bool sealed = false;
    std::size_t identities = 0;       ///< client identity pool (sealed)
    std::uint32_t session_cache = 0;  ///< BDN session cache (sealed)
    std::uint32_t session_uses = 0;   ///< discoveries per client session (sealed)
    std::size_t clients = 4;
    int setups = 5;                   ///< set-ups per untraced run (setup_s is their median)
};

/// Steady-clock nanoseconds; every generator and window timestamp uses it.
std::int64_t mono_ns();

/// The workload named `name`, or nothing.
std::optional<WorkloadSpec> find_workload(const std::string& name);

/// Run `fn` on `transport`'s event-loop thread and wait for its result.
template <typename Fn>
auto run_on(narada::transport::PosixTransport& transport, Fn fn) -> decltype(fn()) {
    std::packaged_task<decltype(fn())()> task(std::move(fn));
    auto result = task.get_future();
    transport.schedule(0, [&task] { task(); });
    return result.get();
}

/// Key material for the sealed workload (generated during set-up).
struct Pki {
    narada::crypto::RsaKeyPair ca;
    narada::crypto::Certificate root;
    narada::crypto::RsaKeyPair bdn;
    std::vector<narada::crypto::RsaKeyPair> ids;
    std::vector<narada::crypto::Certificate> id_certs;

    static Pki generate(std::size_t identities);
};

/// Counts the injections (reliable discovery requests) that reach the
/// synthetic ads' endpoint. It never answers, so the BDNs' registry pings
/// go unanswered too.
class Sink final : public narada::transport::MessageHandler {
public:
    void on_datagram(const Endpoint& from, const Bytes& data) override;
    void on_reliable(const Endpoint& from, const Bytes& data) override;
    std::atomic<std::uint64_t> injections{0};
};

/// One discovery as the generator saw it.
struct DiscoveryRecord {
    std::int64_t issue_ns = 0;
    std::int64_t done_ns = 0;
    bool ok = false;
    bool gate_ok = true;        ///< selected a real broker, heard from all of them
    bool traced = false;        ///< completed while the benchmark tracer ran
    std::uint32_t responses = 0;
    std::uint32_t retransmits = 0;
    std::uint64_t req = 0;      ///< request_key of the run's request id
    double ack_ms = -1, first_response_ms = -1, collect_ms = 0, ping_ms = 0;
    std::vector<narada::discovery::Candidate> candidates;  ///< kept for traced runs only
};

/// A set-up discovery plane.
class Plane {
public:
    Plane(const WorkloadSpec& spec, std::uint64_t seed, const Pki* pki);
    ~Plane();
    Plane(const Plane&) = delete;
    Plane& operator=(const Plane&) = delete;

    /// Start nodes, wait for registration and (federated) registry
    /// convergence. Throws std::runtime_error when the plane does not
    /// converge in time.
    void converge();

    const WorkloadSpec& spec() const { return spec_; }
    narada::transport::PosixTransport& plane_reactor() { return *plane_tx_; }
    narada::transport::PosixTransport& client_reactor() { return *client_tx_; }
    Tracer& tracer() { return tracer_; }
    narada::obs::MetricsRegistry& metrics() { return metrics_; }
    std::vector<std::unique_ptr<narada::discovery::DiscoveryClient>>& clients() { return clients_; }
    std::vector<std::unique_ptr<narada::discovery::SecurityContext>>& identities() { return identity_ctx_; }
    narada::discovery::SecurityContext* bdn_security() { return bdn_ctx_.get(); }
    const std::set<narada::Uuid>& real_brokers() const { return real_ids_; }
    std::vector<std::unique_ptr<narada::discovery::Bdn>>& bdns() { return bdns_; }
    std::vector<std::unique_ptr<narada::discovery::BrokerDiscoveryPlugin>>& plugins() { return plugins_; }
    Sink* sink() { return sink_.get(); }
    const Endpoint& sink_endpoint() const { return sink_ep_; }
    NodePort& sink_port() { return *sink_port_; }
    /// The port the generator's own timers run through (dropped after teardown).
    NodePort& generator_port() { return *generator_port_; }
    const std::vector<Bytes>& synthetic_frames() const { return synthetic_frames_; }
    /// Per-thread CPU clocks of the two reactors (for loop_busy).
    clockid_t plane_cpu_clock() const { return plane_clock_.load(); }
    clockid_t client_cpu_clock() const { return client_clock_.load(); }
    std::uint64_t expected_registry_total() const { return expected_total_; }

    /// Stop all traffic and destroy the nodes, then the reactors.
    void teardown();

private:
    Endpoint next_endpoint();
    NodePort& port(narada::transport::PosixTransport& reactor, std::string name, Role role);
    void load_registry();

    WorkloadSpec spec_;
    std::uint64_t seed_;
    const Pki* pki_;

    // Declaration order is teardown order in reverse: the metrics registry
    // and the tracer outlive the reactors that update them.
    narada::obs::MetricsRegistry metrics_;
    narada::obs::SpanRecorder program_spans_{4096};
    Tracer tracer_;
    narada::WallClock wall_;
    narada::timesvc::FixedUtcSource utc_{wall_};
    std::atomic<clockid_t> plane_clock_{};
    std::atomic<clockid_t> client_clock_{};
    std::vector<std::unique_ptr<NodePort>> ports_;
    std::unique_ptr<narada::transport::PosixTransport> plane_tx_;
    std::unique_ptr<narada::transport::PosixTransport> client_tx_;
    std::deque<narada::Rng> ctx_rngs_;

    std::unique_ptr<narada::discovery::SecurityContext> bdn_ctx_;
    std::vector<std::unique_ptr<narada::discovery::SecurityContext>> identity_ctx_;
    std::vector<std::unique_ptr<narada::discovery::Bdn>> bdns_;
    std::vector<std::unique_ptr<narada::discovery::BrokerDiscoveryPlugin>> plugins_;
    std::vector<std::unique_ptr<narada::broker::Broker>> brokers_;
    std::vector<std::unique_ptr<narada::discovery::DiscoveryClient>> clients_;
    std::unique_ptr<Sink> sink_;
    NodePort* sink_port_ = nullptr;
    NodePort* generator_port_ = nullptr;
    Endpoint sink_ep_;

    std::set<narada::Uuid> real_ids_;
    std::vector<narada::discovery::BrokerAdvertisement> synthetic_;
    std::vector<Bytes> synthetic_frames_;
    std::uint64_t expected_total_ = 0;
    std::uint16_t next_port_ = 0;
    bool torn_down_ = false;
};

/// The closed-loop load generator: each client re-issues on completion.
/// Runs on the client reactor; the main thread starts, samples and stops it.
class Generator {
public:
    /// `details` keeps a full DiscoveryRecord per discovery as well (the
    /// traced run's per-layer metrics need them).
    Generator(Plane& plane, std::uint64_t seed, bool details);

    /// Begin issuing requests (and ad renewals, where the workload has them).
    void start();
    /// Stop issuing; returns once no further request will be started.
    void stop();

    /// Every completed discovery, in completion order (read after stop()).
    std::span<const Completion> completions() const {
        return {completions_.data(), completed_.load()};
    }
    /// Full records, when kept (read after stop()).
    const std::vector<DiscoveryRecord>& records() const { return records_; }
    /// Resident bytes of the completion buffer (allocated and touched up front).
    std::size_t completion_bytes() const { return completions_.size() * sizeof(Completion); }
    /// Keep candidate lists of traced runs for the scoring replay.
    void keep_candidates(bool keep) { keep_candidates_.store(keep); }

private:
    struct Slot {
        std::int64_t issue_ns = 0;
        std::uint32_t gen_span = 0;
        // sealed workload: the client's identities in seeded order, the one
        // in use, and the discoveries its session has left
        std::vector<std::size_t> identities;
        std::size_t identity = 0;
        std::uint32_t session_left = 0;
    };

    /// Pick the identity client `c` runs its next discovery as.
    narada::discovery::SecurityContext* next_identity(std::size_t c);

    void issue(std::size_t client);
    void on_done(std::size_t client, const narada::discovery::DiscoveryReport& report);
    void renew_tick();

    Plane& plane_;
    narada::Rng rng_;
    std::vector<Slot> slots_;
    std::vector<Completion> completions_;
    bool details_;
    std::vector<DiscoveryRecord> records_;
    std::atomic<bool> running_{false};
    std::atomic<bool> keep_candidates_{false};
    std::atomic<std::uint64_t> completed_{0};
    std::int64_t renew_last_ns_ = 0;
    double renew_credit_ = 0.0;
};

}  // namespace perfbench
