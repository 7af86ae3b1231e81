#include "layers.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <ctime>
#include <unordered_map>

#include "discovery/messages.hpp"
#include "discovery/scoring.hpp"
#include "wire/codec.hpp"
#include "wire/msg_types.hpp"

namespace perfbench {

using namespace narada;

namespace {

double thread_cpu_ms(clockid_t clock) {
    timespec ts{};
    if (clock_gettime(clock, &ts) != 0) return 0.0;
    return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

double process_cpu_ms() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto ms = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) * 1e3 + static_cast<double>(tv.tv_usec) / 1e3;
    };
    return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Spans of the traced window, grouped for the per-layer percentiles.
struct SpanIndex {
    std::unordered_map<std::uint64_t, double> self_ns_by_req;
    LatencySet bdn_request, bdn_ad, bdn_shard_query, bdn_shard_reply;
    LatencySet broker_request, broker_ping, client_response, sends;
    std::size_t spans = 0;
    std::uint64_t dropped = 0;
};

SpanIndex index_spans(const Tracer& tracer) {
    SpanIndex index;
    for (const SpanBuffer* buffer : tracer.buffers()) {
        index.dropped += buffer->dropped;
        for (const Span& span : buffer->spans) {
            ++index.spans;
            if (span.req != 0) index.self_ns_by_req[span.req] += span.self_ns;
            const double us = span.dur_ns / 1e3;
            if (span.kind == SpanKind::kSend) {
                index.sends.add(us);
                continue;
            }
            if (span.kind != SpanKind::kDatagram && span.kind != SpanKind::kReliable) continue;
            switch (tracer.node_role(span.node)) {
                case Role::kBdn:
                    switch (span.msg) {
                        case wire::kMsgDiscoveryRequest:
                        case wire::kMsgSecureEnvelope:
                        case kCodeHandshake: index.bdn_request.add(us); break;
                        case wire::kMsgBrokerAdvertisement:
                        case wire::kMsgAdForward: index.bdn_ad.add(us); break;
                        case wire::kMsgShardQuery: index.bdn_shard_query.add(us); break;
                        case wire::kMsgShardReply: index.bdn_shard_reply.add(us); break;
                        default: break;
                    }
                    break;
                case Role::kBroker:
                    if (span.msg == wire::kMsgDiscoveryRequest || span.msg == wire::kMsgEventFlood) {
                        index.broker_request.add(us);
                    } else if (span.msg == wire::kMsgPing) {
                        index.broker_ping.add(us);
                    }
                    break;
                case Role::kClient:
                    if (span.msg == wire::kMsgDiscoveryResponse) index.client_response.add(us);
                    break;
                case Role::kSink: break;
            }
        }
    }
    return index;
}

/// Mean nanoseconds per call of `fn` over every captured frame, repeated
/// until at least ~2 ms of work was timed.
template <typename Fn>
double time_per_frame_ns(const std::vector<Bytes>& frames, Fn fn) {
    if (frames.empty()) return 0.0;
    std::size_t calls = 0;
    const auto start = std::chrono::steady_clock::now();
    auto now = start;
    while (now - start < std::chrono::milliseconds(2)) {
        for (const Bytes& frame : frames) fn(frame);
        calls += frames.size();
        now = std::chrono::steady_clock::now();
    }
    return std::chrono::duration<double, std::nano>(now - start).count() /
           static_cast<double>(calls);
}

volatile std::uint64_t g_sink;  // keeps replayed decodes observable

struct Codec {
    const char* name;
    std::uint8_t type;
    void (*decode)(wire::ByteReader&);
    void (*encode)(const Bytes&);  ///< decode once (untimed part is small), re-encode
};

template <typename Message>
void decode_message(wire::ByteReader& reader) {
    const Message m = Message::decode(reader);
    g_sink = g_sink + reader.position();
    (void)m;
}

template <typename Message>
void encode_message(const Bytes& frame) {
    static thread_local Message m;
    static thread_local const Bytes* last = nullptr;
    if (last != &frame) {  // decode outside the timed encode, once per frame
        wire::ByteReader reader(frame.data() + 1, frame.size() - 1);
        m = Message::decode(reader);
        last = &frame;
    }
    wire::ByteWriter writer;
    writer.reserve(1 + m.measured_size());
    writer.u8(frame[0]);
    m.encode(writer);
    g_sink = g_sink + writer.size();
}

/// The message types with a public codec (decode/encode on the message
/// struct). Acks, pings and pongs have none: the nodes write them field by
/// field, so there is no program code of theirs to replay.
const Codec kCodecs[] = {
    {"request", wire::kMsgDiscoveryRequest, decode_message<discovery::DiscoveryRequest>,
     encode_message<discovery::DiscoveryRequest>},
    {"response", wire::kMsgDiscoveryResponse, decode_message<discovery::DiscoveryResponse>,
     encode_message<discovery::DiscoveryResponse>},
    {"ad", wire::kMsgBrokerAdvertisement, decode_message<discovery::BrokerAdvertisement>,
     encode_message<discovery::BrokerAdvertisement>},
    {"shard_query", wire::kMsgShardQuery, decode_message<discovery::ShardQuery>,
     encode_message<discovery::ShardQuery>},
    {"shard_reply", wire::kMsgShardReply, decode_message<discovery::ShardReply>,
     encode_message<discovery::ShardReply>},
};

void wire_metrics(const Tracer& tracer, std::vector<Metric>& out) {
    std::map<std::uint8_t, std::vector<Bytes>> captured;
    for (const SpanBuffer* buffer : tracer.buffers()) {
        for (const auto& [type, frames] : buffer->captured) {
            auto& all = captured[type];
            all.insert(all.end(), frames.begin(), frames.end());
        }
    }
    for (const Codec& codec : kCodecs) {
        const std::vector<Bytes>& frames = captured[codec.type];
        const double decode_ns = time_per_frame_ns(frames, [&](const Bytes& frame) {
            wire::ByteReader reader(frame.data() + 1, frame.size() - 1);
            codec.decode(reader);
        });
        const double encode_ns = time_per_frame_ns(frames, codec.encode);
        out.push_back({std::string("wire.decode_ns.") + codec.name, decode_ns, "ns", frames.size()});
        out.push_back({std::string("wire.encode_ns.") + codec.name, encode_ns, "ns", frames.size()});
    }
}

/// Seal/open costs through the public SecurityContext API, on contexts
/// built from the workload's own key material.
void security_metrics(const Pki& pki, const Bytes& request, std::vector<Metric>& out) {
    config::SecurityConfig cfg;
    cfg.mode = config::SecurityConfig::Mode::kSeal;
    cfg.rekey_interval = 0;
    WallClock clock;
    Rng rng_a(11), rng_b(12);
    discovery::SecurityContext client("client-0", pki.ids[0], {pki.id_certs[0], pki.root},
                                      {pki.root}, cfg, clock, rng_a);
    discovery::SecurityContext bdn("bdn-0", pki.bdn, {}, {pki.root}, cfg, clock, rng_b);
    client.add_peer_key("bdn-0", pki.bdn.public_key);
    const std::span<const std::uint8_t> payload(request.data(), request.size());

    const auto open = [&bdn](const Bytes& sealed) {
        wire::ByteReader reader(sealed.data() + 1, sealed.size() - 1);
        return bdn.open_datagram(reader).ok();
    };
    const auto seal = [&](bool handshake) {
        wire::ByteWriter writer;
        client.seal_datagram(payload, "bdn-0", writer, handshake);
        return writer.take();
    };

    // Cold open: every datagram carries a fresh RSA handshake.
    LatencySet handshake_us;
    for (int i = 0; i < 5; ++i) {
        const Bytes sealed = seal(true);
        const auto t0 = std::chrono::steady_clock::now();
        const bool ok = open(sealed);
        const auto t1 = std::chrono::steady_clock::now();
        if (ok) handshake_us.add(std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
    // Warm: the session established above carries everything.
    constexpr int kWarm = 2000;
    std::vector<Bytes> sealed(kWarm);
    const auto s0 = std::chrono::steady_clock::now();
    for (Bytes& b : sealed) b = seal(false);
    const auto s1 = std::chrono::steady_clock::now();
    std::size_t opened = 0;
    for (const Bytes& b : sealed) opened += open(b) ? 1 : 0;
    const auto s2 = std::chrono::steady_clock::now();
    const double seal_us = std::chrono::duration<double, std::micro>(s1 - s0).count() / kWarm;
    const double open_us = std::chrono::duration<double, std::micro>(s2 - s1).count() / kWarm;
    out.push_back({"security.seal_us", seal_us, "us", kWarm});
    out.push_back({"security.open_us", opened == kWarm ? open_us : 0.0, "us", opened});
    out.push_back({"security.handshake_us", handshake_us.summary().p50, "us", handshake_us.size()});
}

void add_pct(std::vector<Metric>& out, const std::string& name, const LatencySet& set,
             double pct, const char* unit) {
    const LatencySummary s = set.summary(pct);
    // A percentile without ten samples beyond it is not reported (0).
    const double value = pct <= 50.0 ? s.p50 : (s.tail_pct == pct ? s.tail : 0.0);
    out.push_back({name, value, unit, set.size()});
}

}  // namespace

Counters snapshot(Plane& plane) {
    Counters c;
    c.t_ns = mono_ns();
    c.process_cpu_ms = process_cpu_ms();
    c.plane_cpu_ms = thread_cpu_ms(plane.plane_cpu_clock());
    c.client_cpu_ms = thread_cpu_ms(plane.client_cpu_clock());

    obs::MetricsRegistry& m = plane.metrics();
    for (const char* node : {"plane", "clients"}) {
        c.frames_out += static_cast<double>(m.counter_value("transport_frames_out", node));
        c.bytes_out += static_cast<double>(m.counter_value("transport_bytes_out", node));
        c.syscalls += static_cast<double>(m.counter_value("transport_syscalls_recv", node) +
                                          m.counter_value("transport_syscalls_send", node));
        c.pool_hits += static_cast<double>(m.counter_value("transport_pool_hits", node));
        c.pool_misses += static_cast<double>(m.counter_value("transport_pool_misses", node));
        c.backlog_drops +=
            static_cast<double>(m.counter_value("transport_udp_backlog_dropped", node));
        c.eagain += static_cast<double>(m.counter_value("transport_eagain_stalls", node));
        const auto batch = m.histogram("transport_recv_batch", node, obs::batch_buckets()).snapshot();
        c.recv_batch_sum += batch.sum;
        c.recv_batch_count += static_cast<double>(batch.count);
    }

    run_on(plane.plane_reactor(), [&] {
        for (const auto& bdn : plane.bdns()) {
            const auto& s = bdn->stats();
            c.bdn_requests += static_cast<double>(s.requests_received);
            c.bdn_duplicates += static_cast<double>(s.duplicate_requests);
            c.bdn_shed += static_cast<double>(s.requests_shed());
            c.bdn_injections += static_cast<double>(s.injections);
            c.bdn_gathers += static_cast<double>(s.gathers);
            c.bdn_gathers_partial += static_cast<double>(s.gathers_partial);
            c.bdn_queue_peak = std::max(c.bdn_queue_peak, static_cast<double>(s.queue_depth_peak));
        }
        for (const auto& plugin : plane.plugins()) {
            c.plugin_seen += static_cast<double>(plugin->stats().requests_seen);
            c.plugin_duplicates += static_cast<double>(plugin->stats().duplicates_suppressed);
        }
        if (auto* sec = plane.bdn_security()) {
            c.bdn_evictions = static_cast<double>(sec->rx_sessions().stats().evictions);
            c.bdn_session_hits = static_cast<double>(sec->stats().session_hits);
            c.bdn_session_misses = static_cast<double>(sec->stats().session_misses);
        }
        return 0;
    });
    run_on(plane.client_reactor(), [&] {
        for (const auto& ctx : plane.identities()) {
            c.client_handshakes += static_cast<double>(ctx->stats().handshakes_sent);
        }
        return 0;
    });
    if (const Sink* sink = plane.sink()) {
        c.sink_injections = static_cast<double>(sink->injections.load());
    }
    return c;
}

double discoveries_per_s(const Generator& generator, const Counters& from, const Counters& to) {
    std::size_t ok = 0;
    for (const DiscoveryRecord& r : generator.records()) {
        if (r.ok && r.done_ns >= from.t_ns && r.done_ns < to.t_ns) ++ok;
    }
    return static_cast<double>(ok) / (static_cast<double>(to.t_ns - from.t_ns) / 1e9);
}

std::vector<Metric> layer_metrics(const LayerInputs& in) {
    std::vector<Metric> out;
    const Counters& a0 = in.untraced_from;
    const Counters& a1 = in.untraced_to;
    const Counters& b0 = in.traced_from;
    const Counters& b1 = in.traced_to;

    std::size_t ok_a = 0;
    for (const DiscoveryRecord& r : in.generator.records()) {
        if (r.ok && r.done_ns >= a0.t_ns && r.done_ns < a1.t_ns) ++ok_a;
    }
    const double per = ok_a > 0 ? 1.0 / static_cast<double>(ok_a) : 0.0;
    const double wall_ms = static_cast<double>(a1.t_ns - a0.t_ns) / 1e6;

    // --- transport (counters over the untraced window) -------------------------
    const SpanIndex spans = index_spans(in.plane.tracer());
    out.push_back({"transport.datagrams_per_discovery", (a1.frames_out - a0.frames_out) * per, "count", ok_a});
    out.push_back({"transport.syscalls_per_discovery", (a1.syscalls - a0.syscalls) * per, "count", ok_a});
    out.push_back({"transport.recv_batch_mean",
                   ratio(a1.recv_batch_sum - a0.recv_batch_sum, a1.recv_batch_count - a0.recv_batch_count),
                   "count", static_cast<std::size_t>(a1.recv_batch_count - a0.recv_batch_count)});
    out.push_back({"transport.pool_miss_ratio",
                   ratio(a1.pool_misses - a0.pool_misses,
                         (a1.pool_misses - a0.pool_misses) + (a1.pool_hits - a0.pool_hits)),
                   "ratio", 0});
    out.push_back({"transport.drops",
                   (a1.backlog_drops - a0.backlog_drops) + (a1.eagain - a0.eagain), "count", 0});
    out.push_back({"transport.loop_busy.plane", ratio(a1.plane_cpu_ms - a0.plane_cpu_ms, wall_ms), "ratio", 0});
    out.push_back({"transport.loop_busy.client", ratio(a1.client_cpu_ms - a0.client_cpu_ms, wall_ms), "ratio", 0});
    add_pct(out, "transport.send_us_p50", spans.sends, 50.0, "us");
    add_pct(out, "transport.send_us_p99", spans.sends, 99.0, "us");

    // --- wire -----------------------------------------------------------------------
    wire_metrics(in.plane.tracer(), out);
    out.push_back({"wire.bytes_per_discovery", (a1.bytes_out - a0.bytes_out) * per, "bytes", ok_a});

    // --- security -------------------------------------------------------------------
    if (in.pki != nullptr) {
        Bytes request;
        {
            discovery::DiscoveryRequest r;
            r.requester_hostname = "client-0";
            r.reply_to = {0, 1};
            r.protocols = {"tcp", "udp"};
            r.realm = "loopback";
            wire::ByteWriter writer;
            writer.u8(wire::kMsgDiscoveryRequest);
            r.encode(writer);
            request = writer.take();
        }
        security_metrics(*in.pki, request, out);
    } else {
        out.push_back({"security.seal_us", 0.0, "us", 0});
        out.push_back({"security.open_us", 0.0, "us", 0});
        out.push_back({"security.handshake_us", 0.0, "us", 0});
    }
    const double hits = a1.bdn_session_hits - a0.bdn_session_hits;
    const double misses = a1.bdn_session_misses - a0.bdn_session_misses;
    out.push_back({"security.session_hit_ratio", ratio(hits, hits + misses), "ratio", 0});
    out.push_back({"security.evictions_per_discovery",
                   (a1.bdn_evictions - a0.bdn_evictions) * per, "count", ok_a});
    out.push_back({"security.handshakes_per_discovery",
                   (a1.client_handshakes - a0.client_handshakes) * per, "count", ok_a});

    // --- discovery::Bdn + registry_shard ----------------------------------------------
    add_pct(out, "bdn.request_us_p50", spans.bdn_request, 50.0, "us");
    add_pct(out, "bdn.request_us_p99", spans.bdn_request, 99.0, "us");
    add_pct(out, "bdn.ad_us_p50", spans.bdn_ad, 50.0, "us");
    add_pct(out, "bdn.ad_us_p99", spans.bdn_ad, 99.0, "us");
    add_pct(out, "bdn.shard_query_us_p50", spans.bdn_shard_query, 50.0, "us");
    add_pct(out, "bdn.shard_query_us_p99", spans.bdn_shard_query, 99.0, "us");
    add_pct(out, "bdn.shard_reply_us_p50", spans.bdn_shard_reply, 50.0, "us");
    out.push_back({"bdn.queue_depth_peak", a1.bdn_queue_peak, "count", 0});
    const double requests = a1.bdn_requests - a0.bdn_requests;
    out.push_back({"bdn.shed_ratio", ratio(a1.bdn_shed - a0.bdn_shed, requests), "ratio", 0});
    out.push_back({"bdn.gather_partial_ratio",
                   ratio(a1.bdn_gathers_partial - a0.bdn_gathers_partial, a1.bdn_gathers - a0.bdn_gathers),
                   "ratio", 0});
    out.push_back({"bdn.injections_per_request",
                   ratio(a1.bdn_injections - a0.bdn_injections,
                         requests - (a1.bdn_duplicates - a0.bdn_duplicates)),
                   "count", 0});
    out.push_back({"bdn.sink_injections_per_discovery",
                   (a1.sink_injections - a0.sink_injections) * per, "count", ok_a});

    // --- broker + BrokerDiscoveryPlugin --------------------------------------------------
    add_pct(out, "broker.request_us_p50", spans.broker_request, 50.0, "us");
    add_pct(out, "broker.request_us_p99", spans.broker_request, 99.0, "us");
    add_pct(out, "broker.ping_us_p50", spans.broker_ping, 50.0, "us");
    out.push_back({"broker.dup_ratio",
                   ratio(a1.plugin_duplicates - a0.plugin_duplicates, a1.plugin_seen - a0.plugin_seen),
                   "ratio", 0});

    // --- discovery::DiscoveryClient (DiscoveryReport phases, untraced window) ----------
    LatencySet ack, first, collect, ping, score_us;
    double retransmits = 0;
    std::vector<const DiscoveryRecord*> traced;
    for (const DiscoveryRecord& r : in.generator.records()) {
        if (r.ok && r.done_ns >= a0.t_ns && r.done_ns < a1.t_ns) {
            if (r.ack_ms >= 0) ack.add(r.ack_ms);
            if (r.first_response_ms >= 0) first.add(r.first_response_ms);
            collect.add(r.collect_ms);
            ping.add(r.ping_ms);
            retransmits += r.retransmits;
        }
        if (r.ok && r.traced && r.issue_ns >= b0.t_ns && r.done_ns < b1.t_ns) traced.push_back(&r);
    }
    // Scoring replayed through the public shortlist() on the traced runs'
    // own candidate lists (the report's µs clock rounds it to 0).
    const config::MetricWeights weights;
    for (const DiscoveryRecord* r : traced) {
        if (r->candidates.empty()) continue;
        std::vector<discovery::Candidate> candidates = r->candidates;
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < 16; ++i) {
            const auto order = discovery::shortlist(candidates, weights, candidates.size());
            g_sink = g_sink + order.size();
        }
        const auto t1 = std::chrono::steady_clock::now();
        score_us.add(std::chrono::duration<double, std::micro>(t1 - t0).count() / 16.0);
    }
    add_pct(out, "client.ack_ms_p50", ack, 50.0, "ms");
    add_pct(out, "client.first_response_ms_p50", first, 50.0, "ms");
    add_pct(out, "client.collect_ms_p50", collect, 50.0, "ms");
    add_pct(out, "client.collect_ms_p99", collect, 99.0, "ms");
    add_pct(out, "client.score_us_p50", score_us, 50.0, "us");
    add_pct(out, "client.ping_ms_p50", ping, 50.0, "ms");
    add_pct(out, "client.response_us_p50", spans.client_response, 50.0, "us");
    out.push_back({"client.retransmits_per_discovery", retransmits * per, "count", ok_a});

    // --- path split: what the traced handler self time does not explain -----------------
    LatencySet unattributed;
    for (const DiscoveryRecord* r : traced) {
        const auto it = spans.self_ns_by_req.find(r->req);
        const double attributed_ms = it == spans.self_ns_by_req.end() ? 0.0 : it->second / 1e6;
        unattributed.add(static_cast<double>(r->done_ns - r->issue_ns) / 1e6 - attributed_ms);
    }
    add_pct(out, "unattributed_ms_p50", unattributed, 50.0, "ms");

    // --- the tracer itself ------------------------------------------------------------
    const double dps_untraced = discoveries_per_s(in.generator, a0, a1);
    const double dps_traced = discoveries_per_s(in.generator, b0, b1);
    out.push_back({"trace.discoveries_per_s_untraced", dps_untraced, "1/s", ok_a});
    out.push_back({"trace.discoveries_per_s_traced", dps_traced, "1/s", traced.size()});
    out.push_back({"trace.overhead", dps_untraced > 0 ? 1.0 - dps_traced / dps_untraced : 0.0,
                   "ratio", 0});
    out.push_back({"trace.spans", static_cast<double>(spans.spans), "count", 0});
    out.push_back({"trace.spans_dropped", static_cast<double>(spans.dropped), "count", 0});
    return out;
}

bool write_spans(const Tracer& tracer, const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    static const char* const kKinds[] = {"datagram", "reliable", "timer", "send", "generator"};
    std::fputs("thread\tindex\tparent\tnode\tkind\tmsg\tstart_ns\tdur_ns\tself_ns\treq\n", f);
    std::size_t thread = 0;
    for (const SpanBuffer* buffer : tracer.buffers()) {
        for (std::size_t i = 0; i < buffer->spans.size(); ++i) {
            const Span& s = buffer->spans[i];
            std::fprintf(f, "%zu\t%zu\t%u\t%s\t%s\t0x%02x\t%lld\t%u\t%u\t%016llx\n", thread, i + 1,
                         s.parent, tracer.node_name(s.node).c_str(),
                         kKinds[static_cast<int>(s.kind)], s.msg,
                         static_cast<long long>(s.start_ns), s.dur_ns, s.self_ns,
                         static_cast<unsigned long long>(s.req));
        }
        ++thread;
    }
    return std::fclose(f) == 0;
}

}  // namespace perfbench
