#include "workloads.hpp"

#include <pthread.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "wire/codec.hpp"
#include "wire/msg_types.hpp"

namespace perfbench {

using namespace narada;
using namespace std::chrono_literals;

std::int64_t mono_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::optional<WorkloadSpec> find_workload(const std::string& name) {
    WorkloadSpec spec;
    spec.name = name;
    if (name == "star_plain") {
        spec.clients = 1;
        return spec;  // 1 BDN, 8 brokers, 1 closed-loop client, security off
    }
    if (name == "registry_10k") {
        spec.bdns = 3;
        spec.replication = 2;
        spec.synthetic_ads = 10000;
        spec.ingest_queue_limit = 64;
        spec.program_trace_rate = 1.0 / 64.0;
        spec.ad_renewals_per_s = 1000.0;
        spec.clients = 8;
        return spec;
    }
    if (name == "sealed_churn") {
        spec.sealed = true;
        spec.identities = 12;
        spec.session_cache = 8;
        spec.session_uses = 4;
        spec.setups = 3;  // each one generates the RSA key material afresh
        return spec;
    }
    return std::nullopt;
}

// --- PKI --------------------------------------------------------------------

Pki Pki::generate(std::size_t identities) {
    // A fixed key seed: the key material is set-up work, not a workload
    // input, and a fixed seed keeps prime-search time out of the spread.
    Rng rng(0x504B49ull);
    constexpr std::size_t kBits = 1024;
    Pki pki;
    const TimeUs now = WallClock().now();
    const TimeUs from = now - 3600 * kSecond;
    const TimeUs to = now + 24 * 3600 * kSecond;
    pki.ca = crypto::rsa_generate(rng, kBits);
    pki.root = crypto::make_self_signed("perfbench-ca", pki.ca, from, to, 1);
    pki.bdn = crypto::rsa_generate(rng, kBits);
    for (std::size_t i = 0; i < identities; ++i) {
        pki.ids.push_back(crypto::rsa_generate(rng, kBits));
        pki.id_certs.push_back(crypto::issue_certificate("client-" + std::to_string(i),
                                                         pki.ids.back().public_key,
                                                         "perfbench-ca", pki.ca.private_key,
                                                         from, to, 2 + i));
    }
    return pki;
}

// --- Sink -------------------------------------------------------------------

void Sink::on_datagram(const Endpoint&, const Bytes&) {}

void Sink::on_reliable(const Endpoint&, const Bytes& data) {
    if (!data.empty() && data[0] == wire::kMsgDiscoveryRequest) {
        injections.fetch_add(1, std::memory_order_relaxed);
    }
}

// --- Plane ------------------------------------------------------------------

namespace {

/// Completions a run can hold: 2^19, over 25k discoveries/s for 20 s.
constexpr std::size_t kMaxCompletions = std::size_t{1} << 19;

/// Reactor options: the two reactors get a CPU each (1 and 2, leaving 0 to
/// the main thread and the kernel) where there are at least three, so every
/// run places them alike; left to the scheduler, two loop threads that wake
/// each other may share a CPU in one run and not in the next.
transport::PosixTransportOptions reactor_options(std::atomic<clockid_t>& cpu_clock, int cpu) {
    transport::PosixTransportOptions options;
    if (std::thread::hardware_concurrency() >= 3) options.pin_cpu = cpu;
    options.loop_start = [&cpu_clock] {
        clockid_t id{};
        if (pthread_getcpuclockid(pthread_self(), &id) == 0) cpu_clock.store(id);
    };
    return options;
}

Bytes frame_ad(const discovery::BrokerAdvertisement& ad) {
    wire::ByteWriter writer;
    writer.reserve(1 + ad.measured_size());
    writer.u8(wire::kMsgBrokerAdvertisement);
    ad.encode(writer);
    return writer.take();
}

}  // namespace

Plane::Plane(const WorkloadSpec& spec, std::uint64_t seed, const Pki* pki)
    : spec_(spec), seed_(seed), pki_(pki) {
    plane_tx_ = std::make_unique<transport::PosixTransport>(reactor_options(plane_clock_, 1));
    client_tx_ = std::make_unique<transport::PosixTransport>(reactor_options(client_clock_, 2));
    // Instruments must be wired before the first bind.
    plane_tx_->set_observability(&metrics_, "plane");
    client_tx_->set_observability(&metrics_, "clients");
    next_port_ = transport::PosixTransport::find_free_port(31000);

    Rng ids(seed ^ 0xB20CE2ull);
    config::SecurityConfig security;
    if (spec_.sealed) {
        security.mode = config::SecurityConfig::Mode::kSeal;
        security.session_cache_size = spec_.session_cache;
        security.rekey_interval = 0;
        ctx_rngs_.emplace_back(seed ^ 0xBD0ull);
        bdn_ctx_ = std::make_unique<discovery::SecurityContext>(
            "bdn-0", pki_->bdn, std::vector<crypto::Certificate>{},
            std::vector<crypto::Certificate>{pki_->root}, security, wall_, ctx_rngs_.back());
    }

    // BDNs (a federated ring when there is more than one).
    std::vector<Endpoint> bdn_eps;
    for (std::size_t i = 0; i < spec_.bdns; ++i) bdn_eps.push_back(next_endpoint());
    for (std::size_t i = 0; i < spec_.bdns; ++i) {
        config::BdnConfig cfg;
        cfg.injection_spacing = 0;
        cfg.request_service_cost = 0;
        cfg.ingest_queue_limit = spec_.ingest_queue_limit;
        if (spec_.bdns > 1) {
            cfg.peer_group = bdn_eps;
            cfg.replication_factor = spec_.replication;
        }
        const std::string name = "bdn-" + std::to_string(i);
        NodePort& p = port(*plane_tx_, name, Role::kBdn);
        auto bdn = std::make_unique<discovery::Bdn>(p, p, bdn_eps[i], wall_, cfg, name);
        if (spec_.program_trace_rate > 0) bdn->set_observability(nullptr, &program_spans_, &utc_);
        if (bdn_ctx_) bdn->set_security(bdn_ctx_.get());
        bdns_.push_back(std::move(bdn));
    }

    // Brokers in a star around broker-0.
    config::BrokerConfig broker_cfg;
    broker_cfg.advertise_bdns = bdn_eps;
    broker_cfg.advertise_on_topic = false;
    broker_cfg.processing_delay = 0;
    for (std::size_t i = 0; i < spec_.brokers; ++i) {
        const std::string name = "broker-" + std::to_string(i);
        NodePort& p = port(*plane_tx_, name, Role::kBroker);
        auto node = std::make_unique<broker::Broker>(p, p, next_endpoint(), wall_, utc_,
                                                     broker_cfg, name);
        discovery::BrokerIdentity identity;
        identity.broker_id = Uuid::random(ids);
        identity.hostname = "127.0.0.1";
        identity.realm = "loopback";
        real_ids_.insert(identity.broker_id);
        auto plugin = std::make_unique<discovery::BrokerDiscoveryPlugin>(identity);
        node->add_plugin(plugin.get());
        if (spec_.program_trace_rate > 0) plugin->set_observability(nullptr, &program_spans_);
        plugins_.push_back(std::move(plugin));
        brokers_.push_back(std::move(node));
    }

    // Discovery clients: each starts its BDN rotation at a different BDN.
    for (std::size_t c = 0; c < spec_.clients; ++c) {
        config::DiscoveryConfig cfg;
        for (std::size_t i = 0; i < bdn_eps.size(); ++i) {
            cfg.bdns.push_back(bdn_eps[(c + i) % bdn_eps.size()]);
        }
        cfg.response_window = from_ms(1000);
        cfg.max_responses = static_cast<std::uint32_t>(spec_.brokers);
        cfg.target_set_size = static_cast<std::uint32_t>(spec_.brokers);
        cfg.ping_window = from_ms(500);
        // Well above the slowest workload's p99 (sealed_churn, about 100 ms),
        // so a retransmission means a lost datagram, not a busy plane.
        cfg.retransmit_interval = from_ms(250);
        const std::string name = "client-" + std::to_string(c);
        NodePort& p = port(*client_tx_, name, Role::kClient);
        const Endpoint ep = next_endpoint();
        auto client = std::make_unique<discovery::DiscoveryClient>(p, p, ep, wall_, utc_, cfg,
                                                                   name, "loopback");
        if (spec_.program_trace_rate > 0) {
            client->set_observability(nullptr, &program_spans_, spec_.program_trace_rate);
        }
        tracer_.add_client_endpoint(ep);
        clients_.push_back(std::move(client));
    }

    // Client identities of the sealed workload: the pool is larger than the
    // BDN's session cache, so some requests arrive without a live session.
    for (std::size_t k = 0; k < spec_.identities; ++k) {
        ctx_rngs_.emplace_back(seed ^ (0x1D0ull + k));
        auto ctx = std::make_unique<discovery::SecurityContext>(
            "client-" + std::to_string(k), pki_->ids[k],
            std::vector<crypto::Certificate>{pki_->id_certs[k], pki_->root},
            std::vector<crypto::Certificate>{pki_->root}, security, wall_, ctx_rngs_.back());
        ctx->add_peer_key("bdn-0", pki_->bdn.public_key);
        ctx->map_endpoint(bdn_eps[0], "bdn-0");
        identity_ctx_.push_back(std::move(ctx));
    }

    generator_port_ = &port(*client_tx_, "generator", Role::kClient);
    if (spec_.synthetic_ads > 0) {
        sink_ = std::make_unique<Sink>();
        sink_ep_ = next_endpoint();
        sink_port_ = &port(*client_tx_, "sink", Role::kSink);
        sink_port_->bind(sink_ep_, sink_.get());
    }
}

Plane::~Plane() { teardown(); }

Endpoint Plane::next_endpoint() {
    const std::uint16_t p = transport::PosixTransport::find_free_port(next_port_);
    next_port_ = static_cast<std::uint16_t>(p + 1);
    return Endpoint{0, p};
}

NodePort& Plane::port(transport::PosixTransport& reactor, std::string name, Role role) {
    const std::uint16_t node = tracer_.add_node(std::move(name), role);
    ports_.push_back(std::make_unique<NodePort>(tracer_, reactor, node));
    return *ports_.back();
}

void Plane::converge() {
    run_on(*plane_tx_, [this] {
        for (auto& bdn : bdns_) bdn->start();
        for (std::size_t i = 1; i < brokers_.size(); ++i) {
            brokers_[i]->connect_to_peer(brokers_[0]->endpoint());
        }
        for (auto& b : brokers_) b->start();
        return 0;
    });

    // Every broker linked to the hub, registered where the ring puts it, and
    // measured (a pong came back) so injection picks real brokers first.
    std::vector<std::size_t> expected_real(bdns_.size(), 0);
    for (std::size_t b = 0; b < bdns_.size(); ++b) {
        for (const Uuid& id : real_ids_) {
            if (!bdns_[b]->federated() || bdns_[b]->ring().owns(bdns_[b]->endpoint(), id)) {
                ++expected_real[b];
            }
        }
    }
    const auto deadline = std::chrono::steady_clock::now() + 20s;
    while (true) {
        const bool ready = run_on(*plane_tx_, [&] {
            if (brokers_[0]->established_peer_count() + 1 < brokers_.size()) return false;
            for (std::size_t b = 0; b < bdns_.size(); ++b) {
                std::size_t measured = 0;
                for (const auto& rb : bdns_[b]->registry()) {
                    if (real_ids_.contains(rb.ad.broker_id) && rb.rtt >= 0) ++measured;
                }
                if (measured != expected_real[b]) return false;
            }
            return true;
        });
        if (ready) break;
        if (std::chrono::steady_clock::now() > deadline) {
            throw std::runtime_error("brokers did not link, register and answer pings in 20 s");
        }
        std::this_thread::sleep_for(200us);
    }
    if (spec_.synthetic_ads > 0) load_registry();
}

void Plane::load_registry() {
    Rng rng(seed_ ^ 0xAD5ull);
    for (std::size_t i = 0; i < spec_.synthetic_ads; ++i) {
        discovery::BrokerAdvertisement ad;
        ad.broker_id = Uuid::random(rng);
        ad.broker_name = "synthetic-" + std::to_string(i);
        ad.hostname = "127.0.0.1";
        ad.endpoint = sink_ep_;
        ad.protocols = {"udp"};
        ad.realm = "loopback";
        synthetic_frames_.push_back(frame_ad(ad));
        synthetic_.push_back(std::move(ad));
    }

    // Which BDN must hold which entry once the ring has converged.
    const discovery::ShardRing& ring = bdns_[0]->ring();
    const auto owns = [&](std::size_t b, const Uuid& id) {
        return !bdns_[b]->federated() || ring.owns(bdns_[b]->endpoint(), id);
    };
    std::vector<std::size_t> expected(bdns_.size(), 0);
    for (std::size_t b = 0; b < bdns_.size(); ++b) {
        for (const Uuid& id : real_ids_) expected[b] += owns(b, id) ? 1 : 0;
        for (const auto& ad : synthetic_) expected[b] += owns(b, ad.broker_id) ? 1 : 0;
        expected_total_ += expected[b];
    }

    // Each ad goes to a BDN that does not own it, which forwards it to
    // every owner — the path a broker's advertisement takes.
    const auto send_ad = [&](std::size_t i, std::size_t b) {
        Bytes frame = client_tx_->acquire_buffer();
        frame.assign(synthetic_frames_[i].begin(), synthetic_frames_[i].end());
        client_tx_->send_datagram(sink_ep_, bdns_[b]->endpoint(), std::move(frame));
    };
    for (std::size_t i = 0; i < synthetic_.size(); ++i) {
        std::size_t target = 0;
        while (target + 1 < bdns_.size() && owns(target, synthetic_[i].broker_id)) ++target;
        send_ad(i, target);
        if (i % 64 == 63) std::this_thread::sleep_for(1ms);
    }

    const auto counts = [&] {
        return run_on(*plane_tx_, [&] {
            std::vector<std::size_t> out;
            for (auto& bdn : bdns_) out.push_back(bdn->registered_count());
            return out;
        });
    };
    const auto deadline = std::chrono::steady_clock::now() + 30s;
    auto last_change = std::chrono::steady_clock::now();
    std::vector<std::size_t> seen = counts();
    while (seen != expected) {
        if (std::chrono::steady_clock::now() > deadline) {
            throw std::runtime_error("federated registry did not converge in 30 s");
        }
        std::this_thread::sleep_for(1ms);
        const std::vector<std::size_t> now = counts();
        if (now != seen) {
            seen = now;
            last_change = std::chrono::steady_clock::now();
            continue;
        }
        if (std::chrono::steady_clock::now() - last_change < 100ms) continue;
        // Stalled short of the target: some datagrams were lost. Re-send
        // each missing entry straight to the BDN that lacks it.
        for (std::size_t b = 0; b < bdns_.size(); ++b) {
            const auto held = run_on(*plane_tx_, [&] {
                std::set<Uuid> out;
                for (const auto& rb : bdns_[b]->registry()) out.insert(rb.ad.broker_id);
                return out;
            });
            for (std::size_t i = 0; i < synthetic_.size(); ++i) {
                if (owns(b, synthetic_[i].broker_id) && !held.contains(synthetic_[i].broker_id)) {
                    send_ad(i, b);
                }
            }
        }
        last_change = std::chrono::steady_clock::now();
    }
}

void Plane::teardown() {
    if (torn_down_) return;
    torn_down_ = true;
    // 1. No delivery or timer task reaches a node from here on; the two
    //    barrier tasks wait out any callback that started before.
    tracer_.close();
    run_on(*plane_tx_, [] { return 0; });
    run_on(*client_tx_, [] { return 0; });
    // 2. Destroy the nodes while the reactors still run (their destructors
    //    unbind and cancel timers through the ports).
    if (sink_port_ != nullptr) sink_port_->unbind(sink_ep_);
    clients_.clear();
    identity_ctx_.clear();
    bdns_.clear();
    brokers_.clear();
    plugins_.clear();
    bdn_ctx_.reset();
    // 3. Stop the reactors; only then the ports, the tracer and the metrics
    //    registry they still reach go (member destruction order).
    client_tx_.reset();
    plane_tx_.reset();
    sink_.reset();
}

// --- Generator --------------------------------------------------------------

Generator::Generator(Plane& plane, std::uint64_t seed, bool details)
    : plane_(plane),
      rng_(seed ^ 0x6E6E6E6Eull),
      slots_(plane.clients().size()),
      completions_(kMaxCompletions),  // value-initialized: every page touched now
      details_(details) {
    if (details_) records_.reserve(1 << 16);
    // Client c owns identities c, c + clients, c + 2 * clients, ... in a
    // seeded order, and starts at a seeded point of its first session.
    const std::size_t stride = slots_.size();
    for (std::size_t c = 0; c < stride; ++c) {
        Slot& slot = slots_[c];
        for (std::size_t k = c; k < plane.identities().size(); k += stride) {
            slot.identities.push_back(k);
        }
        for (std::size_t i = slot.identities.size(); i > 1; --i) {
            std::swap(slot.identities[i - 1], slot.identities[rng_.bounded(i)]);
        }
        if (plane.spec().session_uses > 0) {
            slot.session_left = 1 + static_cast<std::uint32_t>(rng_.bounded(plane.spec().session_uses));
        }
    }
}

discovery::SecurityContext* Generator::next_identity(std::size_t c) {
    // Every session_uses discoveries a client moves on to its next identity
    // and logs in afresh: its session is dropped, so the request carries an
    // RSA handshake, and the BDN's cache (smaller than the pool) evicts its
    // least recently used session to take it. The rest ride the session.
    Slot& slot = slots_[c];
    auto& identities = plane_.identities();
    if (slot.session_left == 0) {
        slot.identity = (slot.identity + 1) % slot.identities.size();
        identities[slot.identities[slot.identity]]->tx_sessions().clear();
        slot.session_left = plane_.spec().session_uses;
    }
    --slot.session_left;
    return identities[slot.identities[slot.identity]].get();
}

void Generator::start() {
    run_on(plane_.client_reactor(), [this] {
        running_ = true;
        const std::int64_t now = mono_ns();
        const WorkloadSpec& spec = plane_.spec();
        for (std::size_t c = 0; c < slots_.size(); ++c) issue(c);
        if (spec.ad_renewals_per_s > 0) {
            renew_last_ns_ = now;
            renew_tick();
        }
        return 0;
    });
}

void Generator::stop() {
    run_on(plane_.client_reactor(), [this] {
        running_ = false;
        return 0;
    });
}

void Generator::issue(std::size_t c) {
    Slot& slot = slots_[c];
    slot.issue_ns = mono_ns();
    if (!plane_.identities().empty()) plane_.clients()[c]->set_security(next_identity(c));
    Tracer& tracer = plane_.tracer();
    const bool opened =
        tracer.open(plane_.generator_port().node(), SpanKind::kGenerator, 0, 0);
    plane_.clients()[c]->discover(
        [this, c](const discovery::DiscoveryReport& report) { on_done(c, report); });
    slot.gen_span = opened ? tracer.close_span() : 0;
}

void Generator::on_done(std::size_t c, const discovery::DiscoveryReport& report) {
    const std::int64_t now = mono_ns();
    const Slot& slot = slots_[c];

    DiscoveryRecord rec;
    rec.issue_ns = slot.issue_ns;
    rec.done_ns = now;
    rec.ok = report.success;
    rec.traced = plane_.tracer().tracing();
    rec.responses = static_cast<std::uint32_t>(report.candidates.size());
    rec.retransmits = report.retransmits;
    rec.req = request_key(report.request_id.hi(), report.request_id.lo());
    rec.ack_ms = report.time_to_ack >= 0 ? to_ms(report.time_to_ack) : -1.0;
    rec.first_response_ms =
        report.time_to_first_response >= 0 ? to_ms(report.time_to_first_response) : -1.0;
    rec.collect_ms = to_ms(report.collection_duration);
    rec.ping_ms = to_ms(report.ping_duration);
    if (report.success) {
        // The gate: the selected broker is a real one and every real broker
        // answered (the synthetic registry entries point at a silent sink).
        const auto& real = plane_.real_brokers();
        const discovery::Candidate* selected = report.selected_candidate();
        rec.gate_ok = selected != nullptr && real.contains(selected->response.broker_id) &&
                      report.candidates.size() == real.size();
        for (const auto& candidate : report.candidates) {
            rec.gate_ok = rec.gate_ok && real.contains(candidate.response.broker_id);
        }
    }
    if (keep_candidates_.load(std::memory_order_relaxed) && rec.traced) {
        rec.candidates = report.candidates;
    }
    plane_.tracer().set_req(slot.gen_span, rec.req);
    const std::uint64_t index = completed_.load(std::memory_order_relaxed);
    if (index < completions_.size()) {
        completions_[index] =
            make_completion(rec.issue_ns, now, rec.responses, rec.ok, rec.gate_ok);
        // Release: a reader that sees the count sees the entry.
        completed_.store(index + 1, std::memory_order_release);
    }
    if (details_) records_.push_back(std::move(rec));

    if (running_) issue(c);
}

void Generator::renew_tick() {
    if (!running_) return;
    const std::int64_t now = mono_ns();
    renew_credit_ += plane_.spec().ad_renewals_per_s * static_cast<double>(now - renew_last_ns_) / 1e9;
    renew_last_ns_ = now;
    const auto& frames = plane_.synthetic_frames();
    auto& bdns = plane_.bdns();
    NodePort& port = plane_.sink_port();
    while (renew_credit_ >= 1.0) {
        renew_credit_ -= 1.0;
        const Bytes& frame = frames[rng_.bounded(frames.size())];
        Bytes copy = port.acquire_buffer();
        copy.assign(frame.begin(), frame.end());
        port.send_datagram(plane_.sink_endpoint(), bdns[rng_.bounded(bdns.size())]->endpoint(),
                           std::move(copy));
    }
    plane_.generator_port().schedule(kMillisecond, [this] { renew_tick(); });
}

}  // namespace perfbench
