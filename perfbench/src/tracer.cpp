#include "tracer.hpp"

#include <chrono>
#include <cstring>

#include "wire/msg_types.hpp"

namespace perfbench {

namespace {

/// Captured datagrams kept per wire type for the codec replay.
constexpr std::size_t kCapturePerType = 64;

std::int64_t steady_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint64_t load_be64(const std::uint8_t* p) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
    return v;
}

/// An open span on this thread.
struct Active {
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::uint64_t req;
    std::uint32_t index;  ///< 1-based slot reserved in the buffer, 0 = not stored
};

struct ThreadState {
    const Tracer* owner = nullptr;
    SpanBuffer* buffer = nullptr;
    std::vector<Active> stack;
};

thread_local ThreadState t_state;

/// Wire code of a frame: its type octet, with handshake envelopes told
/// apart from session envelopes.
std::uint8_t frame_code(const Bytes& data) {
    if (data.empty()) return 0;
    if (data[0] == narada::wire::kMsgSecureEnvelope && data.size() > 1 && data[1] == 1) {
        return kCodeHandshake;
    }
    return data[0];
}

}  // namespace

std::uint64_t request_key(std::uint64_t hi, std::uint64_t lo) {
    const std::uint64_t key = hi ^ (lo * 0x9E3779B97F4A7C15ull);
    return key == 0 ? 1 : key;
}

std::uint64_t request_key_of(const Bytes& frame) {
    if (frame.size() < 17) return 0;
    switch (frame[0]) {
        case narada::wire::kMsgDiscoveryRequest:
        case narada::wire::kMsgDiscoveryAck:
        case narada::wire::kMsgDiscoveryResponse:
        case narada::wire::kMsgEventFlood:
        case narada::wire::kMsgShardQuery:
        case narada::wire::kMsgShardReply:
            return request_key(load_be64(frame.data() + 1), load_be64(frame.data() + 9));
        default:
            return 0;
    }
}

Tracer::Tracer(std::size_t span_capacity_per_thread)
    : capacity_(span_capacity_per_thread), epoch_ns_(steady_ns()) {}

std::uint16_t Tracer::add_node(std::string name, Role role) {
    names_.push_back(std::move(name));
    roles_.push_back(role);
    return static_cast<std::uint16_t>(names_.size() - 1);
}

void Tracer::add_client_endpoint(const Endpoint& ep) {
    client_index_.emplace(ep.port, client_index_.size());
    auto grown = std::make_unique<std::atomic<std::uint64_t>[]>(client_index_.size());
    for (std::size_t i = 0; i < client_slots_; ++i) grown[i].store(client_req_[i].load());
    client_req_ = std::move(grown);
    client_slots_ = client_index_.size();
}

std::uint64_t Tracer::client_req(const Endpoint& ep) const {
    const auto it = client_index_.find(ep.port);
    return it == client_index_.end() ? 0 : client_req_[it->second].load(std::memory_order_relaxed);
}

void Tracer::note_client_req(const Endpoint& ep, std::uint64_t req) {
    const auto it = client_index_.find(ep.port);
    if (it != client_index_.end() && req != 0) {
        client_req_[it->second].store(req, std::memory_order_relaxed);
    }
}

std::int64_t Tracer::now_ns() const { return steady_ns() - epoch_ns_; }

SpanBuffer& Tracer::local_buffer() {
    if (t_state.owner != this) {
        auto buffer = std::make_unique<SpanBuffer>();
        buffer->spans.reserve(capacity_);
        t_state.owner = this;
        t_state.buffer = buffer.get();
        t_state.stack.clear();
        std::scoped_lock lock(mu_);
        buffers_.push_back(std::move(buffer));
    }
    return *t_state.buffer;
}

bool Tracer::open(std::uint16_t node, SpanKind kind, std::uint8_t msg, std::uint64_t req) {
    if (!tracing()) return false;
    SpanBuffer& buffer = local_buffer();
    const std::int64_t now = now_ns();
    std::uint32_t index = 0;
    if (buffer.spans.size() < capacity_) {
        Span span;
        span.start_ns = now;
        span.node = node;
        span.kind = kind;
        span.msg = msg;
        span.parent = t_state.stack.empty() ? 0 : t_state.stack.back().index;
        buffer.spans.push_back(span);
        index = static_cast<std::uint32_t>(buffer.spans.size());
    } else {
        ++buffer.dropped;
        saturated_.store(true, std::memory_order_release);
    }
    t_state.stack.push_back({now, 0, req, index});
    return true;
}

std::uint32_t Tracer::close_span() {
    const Active active = t_state.stack.back();
    t_state.stack.pop_back();
    const std::int64_t dur = now_ns() - active.start_ns;
    if (!t_state.stack.empty()) t_state.stack.back().child_ns += dur;
    if (active.index == 0) return 0;
    Span& span = t_state.buffer->spans[active.index - 1];
    span.dur_ns = static_cast<std::uint32_t>(dur);
    span.self_ns = static_cast<std::uint32_t>(dur - active.child_ns);
    span.req = active.req;
    return active.index;
}

std::uint64_t Tracer::current_req() const {
    if (t_state.owner != this || t_state.stack.empty()) return 0;
    return t_state.stack.back().req;
}

void Tracer::adopt_req(std::uint64_t req) {
    if (req == 0 || t_state.owner != this || t_state.stack.empty()) return;
    if (t_state.stack.back().req == 0) t_state.stack.back().req = req;
}

void Tracer::set_req(std::uint32_t index, std::uint64_t req) {
    if (index == 0 || t_state.owner != this) return;
    t_state.buffer->spans[index - 1].req = req;
}

void Tracer::capture(const Bytes& frame, std::uint8_t msg) {
    std::vector<Bytes>& kept = local_buffer().captured[msg];
    if (kept.size() < kCapturePerType) kept.push_back(frame);
}

std::vector<const SpanBuffer*> Tracer::buffers() const {
    std::scoped_lock lock(mu_);
    std::vector<const SpanBuffer*> out;
    for (const auto& b : buffers_) out.push_back(b.get());
    return out;
}

// --- NodePort -----------------------------------------------------------------

class NodePort::Proxy final : public narada::transport::MessageHandler {
public:
    Proxy(NodePort& port, narada::transport::MessageHandler& inner, const Endpoint& local)
        : port_(port), inner_(inner), local_(local) {}
    void on_datagram(const Endpoint& from, const Bytes& data) override {
        port_.deliver(inner_, local_, from, data, false);
    }
    void on_reliable(const Endpoint& from, const Bytes& data) override {
        port_.deliver(inner_, local_, from, data, true);
    }

private:
    NodePort& port_;
    narada::transport::MessageHandler& inner_;
    Endpoint local_;
};

NodePort::NodePort(Tracer& tracer, narada::transport::PosixTransport& real, std::uint16_t node)
    : tracer_(tracer), real_(real), node_(node) {}

NodePort::~NodePort() = default;

void NodePort::bind(const Endpoint& local, narada::transport::MessageHandler* handler) {
    proxies_.push_back(std::make_unique<Proxy>(*this, *handler, local));
    real_.bind(local, proxies_.back().get());
}

void NodePort::unbind(const Endpoint& local) { real_.unbind(local); }

void NodePort::deliver(narada::transport::MessageHandler& inner, const Endpoint& local,
                       const Endpoint& from, const Bytes& data, bool reliable) {
    if (tracer_.closed()) return;
    if (!tracer_.tracing()) {
        if (reliable) {
            inner.on_reliable(from, data);
        } else {
            inner.on_datagram(from, data);
        }
        return;
    }
    const std::uint8_t code = frame_code(data);
    std::uint64_t req = request_key_of(data);
    // Acks and responses name the client's current request; pings and
    // pongs do not, so they inherit what the client's last ack or response
    // named.
    if (tracer_.node_role(node_) == Role::kClient) {
        if (req != 0) tracer_.note_client_req(local, req);
        if (req == 0 && code == narada::wire::kMsgPong) req = tracer_.client_req(local);
    }
    if (req == 0 && code == narada::wire::kMsgPing) req = tracer_.client_req(from);
    tracer_.capture(data, code);
    const bool opened = tracer_.open(node_, reliable ? SpanKind::kReliable : SpanKind::kDatagram,
                                     code, req);
    if (reliable) {
        inner.on_reliable(from, data);
    } else {
        inner.on_datagram(from, data);
    }
    if (opened) tracer_.close_span();
}

TimerHandle NodePort::schedule(DurationUs delay, std::function<void()> task) {
    const std::uint64_t req = tracer_.current_req();
    Tracer* tracer = &tracer_;
    const std::uint16_t node = node_;
    return real_.schedule(delay, [tracer, node, req, task = std::move(task)] {
        if (tracer->closed()) return;
        const bool opened = tracer->open(node, SpanKind::kTimer, 0, req);
        task();
        if (opened) tracer->close_span();
    });
}

bool NodePort::open_send(const Bytes& data) {
    // A handler that could not read the request id off its input (a sealed
    // request) learns it from what it sends (the plain ack).
    const std::uint64_t req = request_key_of(data);
    tracer_.adopt_req(req);
    return tracer_.open(node_, SpanKind::kSend, frame_code(data),
                        req != 0 ? req : tracer_.current_req());
}

void NodePort::send_datagram(const Endpoint& from, const Endpoint& to, Bytes data) {
    if (!tracer_.tracing()) {
        real_.send_datagram(from, to, std::move(data));
        return;
    }
    const bool opened = open_send(data);
    real_.send_datagram(from, to, std::move(data));
    if (opened) tracer_.close_span();
}

void NodePort::send_reliable(const Endpoint& from, const Endpoint& to, Bytes data) {
    if (!tracer_.tracing()) {
        real_.send_reliable(from, to, std::move(data));
        return;
    }
    const bool opened = open_send(data);
    real_.send_reliable(from, to, std::move(data));
    if (opened) tracer_.close_span();
}

void NodePort::join_multicast(narada::transport::MulticastGroup group, const Endpoint& local) {
    real_.join_multicast(group, local);
}

void NodePort::leave_multicast(narada::transport::MulticastGroup group, const Endpoint& local) {
    real_.leave_multicast(group, local);
}

void NodePort::send_multicast(narada::transport::MulticastGroup group, const Endpoint& from,
                              Bytes data) {
    real_.send_multicast(group, from, std::move(data));
}

}  // namespace perfbench
