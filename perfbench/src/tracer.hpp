// Benchmark-side tracing: a Transport/Scheduler decorator per node.
//
// Every protocol object of the plane (BDN, broker, discovery client, the
// generator's sink) is constructed against its own NodePort instead of the
// PosixTransport. The port forwards everything to the real transport; in
// bind() it wraps the node's MessageHandler so that, while tracing is on,
// each delivery, each timer task and each send_* call is recorded as a span:
// node, kind, message type, start, end, parent span and the discovery
// request id when the datagram carries one. Self time is a span's duration
// minus the spans nested inside it (sends under a handler). Spans live in
// per-thread in-memory buffers and are written out when the run ends.
//
// The port is also what makes teardown safe: after Tracer::close() no
// delivery or timer task reaches a node any more, so the nodes can be
// destroyed while the reactors still run, and the reactors after that.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/scheduler.hpp"
#include "transport/posix_transport.hpp"
#include "transport/transport.hpp"

namespace perfbench {

using narada::Bytes;
using narada::DurationUs;
using narada::Endpoint;
using narada::TimerHandle;

enum class Role : std::uint8_t { kBdn, kBroker, kClient, kSink };
enum class SpanKind : std::uint8_t { kDatagram, kReliable, kTimer, kSend, kGenerator };

/// Message code of a handshake envelope (kMsgSecureEnvelope, subtype 1).
/// Session envelopes keep the plain kMsgSecureEnvelope code.
inline constexpr std::uint8_t kCodeHandshake = 0x41;

struct Span {
    std::int64_t start_ns = 0;  ///< steady clock, relative to the tracer epoch
    std::uint32_t dur_ns = 0;
    std::uint32_t self_ns = 0;  ///< dur_ns minus nested spans
    std::uint64_t req = 0;      ///< request-id key (request_key), 0 = unknown
    std::uint32_t parent = 0;   ///< 1-based index in the same buffer, 0 = root
    std::uint16_t node = 0;
    SpanKind kind = SpanKind::kDatagram;
    std::uint8_t msg = 0;       ///< wire type octet (kCodeHandshake for handshakes)
};

/// Spans and captured datagrams recorded by one thread.
struct SpanBuffer {
    std::vector<Span> spans;
    std::uint64_t dropped = 0;
    /// First datagrams seen per wire type, replayed through the codecs.
    std::map<std::uint8_t, std::vector<Bytes>> captured;
};

/// Key of a discovery request id: the wire encoding of a Uuid is hi then lo.
[[nodiscard]] std::uint64_t request_key(std::uint64_t hi, std::uint64_t lo);
/// Request-id key of a framed message that carries one right after its type
/// octet (request, ack, response, flood event, shard query/reply); 0 else.
[[nodiscard]] std::uint64_t request_key_of(const Bytes& frame);

class Tracer {
public:
    explicit Tracer(std::size_t span_capacity_per_thread = 1u << 18);

    // --- setup (before traffic) ----------------------------------------------
    std::uint16_t add_node(std::string name, Role role);
    /// Register a discovery client's endpoint, so pings and pongs (which
    /// carry no request id) are charged to that client's current request.
    void add_client_endpoint(const Endpoint& ep);
    [[nodiscard]] const std::string& node_name(std::uint16_t node) const { return names_[node]; }
    [[nodiscard]] Role node_role(std::uint16_t node) const { return roles_[node]; }

    // --- switches ------------------------------------------------------------
    void set_tracing(bool on) { tracing_.store(on, std::memory_order_release); }
    [[nodiscard]] bool tracing() const { return tracing_.load(std::memory_order_acquire); }
    /// From now on no delivery or timer task reaches a node.
    void close() { closed_.store(true, std::memory_order_release); }
    [[nodiscard]] bool closed() const { return closed_.load(std::memory_order_acquire); }
    /// A span buffer filled up; the traced phase should end.
    [[nodiscard]] bool saturated() const { return saturated_.load(std::memory_order_acquire); }

    // --- spans (calling thread's buffer) ----------------------------------------
    /// Open a span; returns false (nothing to close) while tracing is off.
    bool open(std::uint16_t node, SpanKind kind, std::uint8_t msg, std::uint64_t req);
    /// Close the innermost open span; returns its 1-based buffer index (0 if
    /// it was not stored).
    std::uint32_t close_span();
    /// Request key of the innermost open span (0 when none).
    [[nodiscard]] std::uint64_t current_req() const;
    /// Give the innermost open span a request key if it has none yet.
    void adopt_req(std::uint64_t req);
    /// Set the request key of an already-closed span of this thread.
    void set_req(std::uint32_t index, std::uint64_t req);
    [[nodiscard]] std::int64_t now_ns() const;

    /// Client-table lookup for pings and pongs.
    [[nodiscard]] std::uint64_t client_req(const Endpoint& ep) const;
    void note_client_req(const Endpoint& ep, std::uint64_t req);

    void capture(const Bytes& frame, std::uint8_t msg);

    /// Every thread's buffer. Read only once the reactors are quiet.
    [[nodiscard]] std::vector<const SpanBuffer*> buffers() const;

private:
    SpanBuffer& local_buffer();

    std::size_t capacity_;
    std::int64_t epoch_ns_;
    std::atomic<bool> tracing_{false};
    std::atomic<bool> closed_{false};
    std::atomic<bool> saturated_{false};
    std::vector<std::string> names_;
    std::vector<Role> roles_;
    std::unordered_map<std::uint16_t, std::size_t> client_index_;  ///< by port
    std::unique_ptr<std::atomic<std::uint64_t>[]> client_req_;
    std::size_t client_slots_ = 0;

    mutable std::mutex mu_;  ///< buffer registration only
    std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

/// The Transport + Scheduler a node is built against.
class NodePort final : public narada::transport::Transport, public narada::Scheduler {
public:
    NodePort(Tracer& tracer, narada::transport::PosixTransport& real, std::uint16_t node);
    ~NodePort() override;

    void bind(const Endpoint& local, narada::transport::MessageHandler* handler) override;
    void unbind(const Endpoint& local) override;
    void send_datagram(const Endpoint& from, const Endpoint& to, Bytes data) override;
    void send_reliable(const Endpoint& from, const Endpoint& to, Bytes data) override;
    void join_multicast(narada::transport::MulticastGroup group, const Endpoint& local) override;
    void leave_multicast(narada::transport::MulticastGroup group, const Endpoint& local) override;
    void send_multicast(narada::transport::MulticastGroup group, const Endpoint& from,
                        Bytes data) override;
    Bytes acquire_buffer() override { return real_.acquire_buffer(); }

    TimerHandle schedule(DurationUs delay, std::function<void()> task) override;
    void cancel_timer(TimerHandle handle) override { real_.cancel_timer(handle); }

    [[nodiscard]] std::uint16_t node() const { return node_; }

    /// A delivery from the wrapped handler (called by the proxy).
    void deliver(narada::transport::MessageHandler& inner, const Endpoint& local,
                 const Endpoint& from, const Bytes& data, bool reliable);

private:
    class Proxy;

    /// Open the span of a send while tracing; false when nothing was opened.
    bool open_send(const Bytes& data);

    Tracer& tracer_;
    narada::transport::PosixTransport& real_;
    std::uint16_t node_;
    /// Proxies live as long as the port: a reactor may still hold one after
    /// unbind, and it must find the closed flag, not freed memory.
    std::vector<std::unique_ptr<Proxy>> proxies_;
};

}  // namespace perfbench
