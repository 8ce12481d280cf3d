#include "fleet_server.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>
#include <unordered_map>

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/errors.hpp"
#include "host/history.hpp"
#include "net/shm_stream.hpp"
#include "obs/registry.hpp"

namespace ps3::net {

namespace {

/** Sentinel for "no credit limit" on a stream. */
constexpr std::uint64_t kNoCreditLimit = ~0ull;

/** Compact the consumed out-buffer prefix past this many bytes. */
constexpr std::size_t kCompactThreshold = 64u << 10;

std::uint16_t
readU16(const std::uint8_t *p)
{
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t
readU32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

/**
 * Fleet-server instruments. The v1 names are shared with Ps3Server
 * on purpose — obs::Registry::counter() returns the existing
 * instrument for a known name, so a process can run both servers
 * and scrape one coherent ps3_net_* family.
 */
struct FleetMetrics
{
    obs::Counter &connected = obs::Registry::global().counter(
        "ps3_net_subscribers_connected_total",
        "Subscribers accepted after a valid handshake");
    obs::Counter &rejected = obs::Registry::global().counter(
        "ps3_net_subscribers_rejected_total",
        "Connections refused during the handshake");
    obs::Counter &subscribersDropped =
        obs::Registry::global().counter(
            "ps3_net_subscribers_dropped_total",
            "Subscribers disconnected by the server (overflow, "
            "errors)");
    obs::Gauge &active = obs::Registry::global().gauge(
        "ps3_net_subscribers_active",
        "Subscribers currently connected");
    obs::Counter &batches = obs::Registry::global().counter(
        "ps3_net_batches_sent_total",
        "Record batches written to subscribers");
    obs::Counter &bytes = obs::Registry::global().counter(
        "ps3_net_bytes_sent_total",
        "Stream bytes written to subscribers (framing included)");
    obs::Counter &recordsDropped = obs::Registry::global().counter(
        "ps3_net_records_dropped_total",
        "Records lost to broadcast-ring laps across all subscribers");
    obs::Counter &markerRequests = obs::Registry::global().counter(
        "ps3_net_marker_requests_total",
        "Upstream marker requests received from subscribers");
    obs::Gauge &queueDepth = obs::Registry::global().gauge(
        "ps3_net_queue_depth",
        "Deepest subscriber lag behind the ring tail at the last "
        "bookkeeping pass (records)");
    obs::Counter &heartbeats = obs::Registry::global().counter(
        "ps3_net_heartbeats_sent_total",
        "Heartbeat frames sent to idle v1.1 subscribers");
    obs::Counter &writeTimeouts = obs::Registry::global().counter(
        "ps3_net_write_timeouts_total",
        "Subscribers disconnected because a socket write timed out");
    obs::Counter &tierSubscribers = obs::Registry::global().counter(
        "ps3_net_tier_subscribers_total",
        "Subscribers accepted on a reduced-rate tier (v1.2)");
    obs::Counter &tierBuckets = obs::Registry::global().counter(
        "ps3_net_tier_buckets_sent_total",
        "Aggregate bucket records sent to tiered subscribers");
    obs::Counter &tierChanges = obs::Registry::global().counter(
        "ps3_net_tier_changes_total",
        "Accepted mid-stream tier renegotiation requests");
    obs::Counter &v2Connections = obs::Registry::global().counter(
        "ps3_net_v2_connections_total",
        "PS3N v2 multiplexed sessions accepted");
    obs::Counter &v2StreamsOpened = obs::Registry::global().counter(
        "ps3_net_v2_streams_opened_total",
        "v2 per-sensor streams opened by subscribe commands");
    obs::Gauge &v2StreamsActive = obs::Registry::global().gauge(
        "ps3_net_v2_streams_active",
        "v2 per-sensor streams currently open");
    obs::Counter &v2ProtocolErrors = obs::Registry::global().counter(
        "ps3_net_v2_protocol_errors_total",
        "v2 protocol violations that cost a client its connection");
    obs::Counter &creditStalls = obs::Registry::global().counter(
        "ps3_net_credit_stalls_total",
        "Streams paused because their send credit ran out");
};

FleetMetrics &
fleetMetrics()
{
    static FleetMetrics metrics;
    return metrics;
}

} // namespace

/** One logical record stream to one subscriber. */
struct FleetServer::Stream
{
    std::uint16_t id = 0;
    std::uint16_t sensorId = 0;
    SensorRegistry::Entry *entry = nullptr;
    transport::BroadcastCursor cursor;
    /** First sequence the client has not yet accounted for. */
    std::uint64_t nextSeq = 0;
    /** Records/buckets the client allows us to send. */
    std::uint64_t credit = kNoCreditLimit;
    transport::RingOverflow overflow =
        transport::RingOverflow::Block;
    host::Tier tier = host::Tier::Raw;
    std::optional<host::TierAccumulator> accumulator;
    std::uint64_t openFirstSeq = 0;
    std::uint64_t nextFoldSeq = 0;
    bool haveFolded = false;
    std::uint64_t publishedDrops = 0;
    bool creditStalled = false;
    std::chrono::steady_clock::time_point lastActivity;
};

/** One accepted socket and everything multiplexed on it. */
struct FleetServer::Connection
{
    enum class Phase
    {
        Hello,     ///< collecting the 8-byte client hello
        V1Stream,  ///< classic single-sensor socket stream
        V2Mux,     ///< multiplexed v2 session
        ShmControl ///< shm:// control socket (markers + liveness)
    };

    int fd = -1;
    bool shm = false;
    Phase phase = Phase::Hello;
    std::uint8_t minor = 0; ///< negotiated v1 minor

    std::uint8_t helloBuf[kClientHelloSize] = {};
    std::size_t helloGot = 0;
    std::chrono::steady_clock::time_point helloDeadline;

    std::vector<std::uint8_t> inBuf; ///< partial v2 commands
    std::uint8_t pendingRequest[2] = {}; ///< partial v1 upstream
    std::size_t pendingRequestLen = 0;

    std::vector<std::uint8_t> out;
    std::size_t outHead = 0;
    bool wantWrite = false;
    std::chrono::steady_clock::time_point lastWriteProgress;

    bool counted = false;        ///< in subscriberCount_
    bool kicked = false;         ///< close at the next sweep
    bool kickedFault = false;    ///< server-initiated drop
    bool closeAfterFlush = false;

    std::vector<std::unique_ptr<Stream>> streams;

    std::size_t
    pendingOut() const
    {
        return out.size() - outHead;
    }
};

// ----- construction ------------------------------------------------------

FleetServer::FleetServer(SensorRegistry &registry, Options options)
    : options_(options), registry_(registry)
{
    streamsBySensor_.resize(registry_.size());
    wakeFd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wakeFd_ < 0)
        throw DeviceError(std::string("eventfd: ")
                          + std::strerror(errno));
    loop_.add(wakeFd_, EPOLLIN, [this](std::uint32_t) {
        std::uint64_t value = 0;
        [[maybe_unused]] const ssize_t n =
            ::read(wakeFd_, &value, sizeof(value));
        std::vector<std::function<void()>> actions;
        {
            std::lock_guard<std::mutex> lock(pendingMutex_);
            actions.swap(pending_);
        }
        for (auto &action : actions)
            action();
        sweepKicked();
    });
    loop_.add(timer_.nativeHandle(), EPOLLIN,
              [this](std::uint32_t) { onTick(); });
    for (std::uint16_t id = 0;
         id < static_cast<std::uint16_t>(registry_.size()); ++id)
    {
        loop_.add(registry_.entry(id).doorbellFd, EPOLLIN,
                  [this, id](std::uint32_t) { onDoorbell(id); });
    }
    fleetMetrics(); // register instruments before serving
    thread_ = std::thread([this] { loopMain(); });
}

FleetServer::FleetServer(SensorRegistry &registry)
    : FleetServer(registry, Options{})
{
}

FleetServer::~FleetServer()
{
    stop();
    if (wakeFd_ >= 0)
        ::close(wakeFd_);
}

void
FleetServer::loopMain()
{
    while (!loopExit_.load(std::memory_order_acquire))
        loop_.runOnce(-1);
}

void
FleetServer::post(std::function<void()> action)
{
    {
        std::lock_guard<std::mutex> lock(pendingMutex_);
        pending_.push_back(std::move(action));
    }
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(wakeFd_, &one, sizeof(one));
}

// ----- listeners ---------------------------------------------------------

transport::Endpoint
FleetServer::listen(const transport::Endpoint &endpoint)
{
    if (stopped_.load(std::memory_order_acquire))
        throw UsageError("FleetServer: listen() after stop()");
    std::lock_guard<std::mutex> lock(listenMutex_);
    // Binds here, on the caller's thread, so an AddressInUseError
    // surfaces synchronously where ps3d can turn it into an exit
    // code.
    auto listener =
        std::make_unique<transport::SocketListener>(endpoint);
    listener->setNonBlocking();
    const transport::Endpoint bound = listener->boundEndpoint();
    const bool shm = endpoint.kind == transport::Endpoint::Kind::Shm;
    transport::SocketListener *raw = listener.release();
    post([this, raw, shm] { addListener(raw, shm); });
    return bound;
}

void
FleetServer::addListener(transport::SocketListener *listener,
                         bool shm)
{
    if (draining_) {
        delete listener;
        return;
    }
    ListenerSlot slot;
    slot.listener.reset(listener);
    slot.shm = shm;
    loop_.add(listener->nativeHandle(), EPOLLIN,
              [this, listener, shm](std::uint32_t) {
                  onAccept(*listener, shm);
                  sweepKicked();
              });
    listeners_.push_back(std::move(slot));
}

void
FleetServer::onAccept(transport::SocketListener &listener, bool shm)
{
    for (;;) {
        const int fd = listener.acceptNonBlocking();
        if (fd < 0)
            return;
        const auto now = std::chrono::steady_clock::now();
        auto conn = std::make_unique<Connection>();
        conn->fd = fd;
        conn->shm = shm;
        conn->helloDeadline =
            now
            + std::chrono::duration_cast<
                  std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(
                      options_.handshakeTimeout));
        conn->lastWriteProgress = now;
        Connection *raw = conn.get();
        connections_.emplace(fd, std::move(conn));
        loop_.add(fd, EPOLLIN, [this, raw](std::uint32_t events) {
            if (!raw->kicked && (events & EPOLLOUT))
                onWritable(*raw);
            if (!raw->kicked
                && (events & (EPOLLIN | EPOLLHUP | EPOLLERR)))
                onReadable(*raw);
            sweepKicked();
        });
        if (!timer_.armed())
            timer_.armPeriodic(options_.tickInterval);
    }
}

// ----- handshake ---------------------------------------------------------

void
FleetServer::onReadable(Connection &connection)
{
    switch (connection.phase) {
      case Connection::Phase::Hello:
        processHello(connection);
        break;
      case Connection::Phase::V1Stream:
      case Connection::Phase::ShmControl:
        processV1Upstream(connection);
        break;
      case Connection::Phase::V2Mux:
        processV2Commands(connection);
        break;
    }
}

void
FleetServer::processHello(Connection &connection)
{
    while (connection.helloGot < kClientHelloSize) {
        const ssize_t n =
            ::recv(connection.fd,
                   connection.helloBuf + connection.helloGot,
                   kClientHelloSize - connection.helloGot, 0);
        if (n > 0) {
            connection.helloGot += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return; // wait for the rest
        kick(connection, false);
        return;
    }

    const auto version =
        peekHelloVersion(connection.helloBuf, kClientHelloSize);
    if (version && *version == kProtocolVersion2) {
        // v2 session. shm:// stays v1-only: the handover protocol
        // carries exactly one ring.
        HelloStatus status = HelloStatus::Ok;
        if (connection.shm)
            status = HelloStatus::BadHello;
        else if (subscriberCount_.load(std::memory_order_relaxed)
                 >= options_.maxSubscribers)
            status = HelloStatus::ServerFull;
        const auto bytes = encodeServerHelloV2(
            status,
            static_cast<std::uint16_t>(
                std::min<std::size_t>(registry_.size(), 0xFFFF)));
        connection.out.insert(connection.out.end(), bytes.begin(),
                              bytes.end());
        if (status != HelloStatus::Ok) {
            fleetMetrics().rejected.inc();
            connection.closeAfterFlush = true;
        } else {
            connection.phase = Connection::Phase::V2Mux;
            connection.counted = true;
            subscriberCount_.fetch_add(1,
                                       std::memory_order_relaxed);
            fleetMetrics().connected.inc();
            fleetMetrics().active.add();
            fleetMetrics().v2Connections.inc();
        }
        flushOut(connection);
        return;
    }

    HelloStatus reject = HelloStatus::BadHello;
    auto decoded = ClientHello::decode(connection.helloBuf,
                                       connection.helloGot, reject);
    if (decoded
        && subscriberCount_.load(std::memory_order_relaxed)
               >= options_.maxSubscribers)
    {
        decoded.reset();
        reject = HelloStatus::ServerFull;
    }
    if (!decoded) {
        fleetMetrics().rejected.inc();
        ServerHello nack;
        nack.status = reject;
        const auto bytes = nack.encode();
        connection.out.insert(connection.out.end(), bytes.begin(),
                              bytes.end());
        connection.closeAfterFlush = true;
        flushOut(connection);
        return;
    }
    startV1Stream(connection, *decoded);
}

void
FleetServer::startV1Stream(Connection &connection,
                           const ClientHello &hello)
{
    auto &primary = registry_.entry(0);
    connection.minor = std::min(hello.minor, kProtocolMinor);

    ServerHello ack;
    ack.sampleRateHz = primary.sampleRateHz;
    ack.firmwareVersion = primary.firmwareVersion;
    ack.config = primary.config;
    ack.tier = (!connection.shm && connection.minor >= 2)
                   ? hello.tier
                   : host::Tier::Raw;
    const auto bytes = ack.encode();
    connection.out.insert(connection.out.end(), bytes.begin(),
                          bytes.end());

    connection.counted = true;
    subscriberCount_.fetch_add(1, std::memory_order_relaxed);
    fleetMetrics().connected.inc();
    fleetMetrics().active.add();

    if (connection.shm) {
        // The segment descriptor must follow the hello bytes on the
        // wire; the hello is tiny, so the flush below completes in
        // one send on any socket that is not already wedged.
        flushOut(connection);
        if (connection.kicked)
            return;
        if (connection.pendingOut() != 0) {
            kick(connection, true);
            return;
        }
        try {
            sendShmHandover(connection.fd, primary.segment);
        } catch (const DeviceError &) {
            kick(connection, false);
            return;
        }
        connection.phase = Connection::Phase::ShmControl;
        return;
    }

    connection.phase = Connection::Phase::V1Stream;
    auto stream = std::make_unique<Stream>();
    stream->id = 0;
    stream->sensorId = 0;
    stream->entry = &primary;
    const std::uint64_t tail = primary.ring->tail();
    stream->cursor.reset(tail);
    stream->nextSeq = tail;
    stream->overflow = hello.overflow;
    stream->tier = ack.tier;
    if (stream->tier != host::Tier::Raw) {
        stream->accumulator.emplace(stream->tier,
                                    primary.sampleRateHz);
        fleetMetrics().tierSubscribers.inc();
    }
    stream->lastActivity = std::chrono::steady_clock::now();
    Stream *raw = stream.get();
    connection.streams.push_back(std::move(stream));
    streamsBySensor_[0].push_back({&connection, raw});
    pumpConnection(connection);
    armDoorbell(0);
}

// ----- v1 upstream -------------------------------------------------------

void
FleetServer::processV1Upstream(Connection &connection)
{
    std::uint8_t buffer[256];
    for (;;) {
        const ssize_t got =
            ::recv(connection.fd, buffer, sizeof(buffer), 0);
        if (got == 0) {
            kick(connection, false);
            return;
        }
        if (got < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            kick(connection, false);
            return;
        }
        for (ssize_t i = 0; i < got; ++i) {
            const std::uint8_t byte = buffer[i];
            if (connection.pendingRequestLen == 0
                && byte != kMarkerRequest
                && !(byte == kTierRequest && connection.minor >= 2
                     && !connection.shm))
                continue; // resync: skip unknown bytes
            connection
                .pendingRequest[connection.pendingRequestLen++] =
                byte;
            if (connection.pendingRequestLen < 2)
                continue;
            connection.pendingRequestLen = 0;
            if (connection.pendingRequest[0] == kTierRequest) {
                const std::uint8_t tier_byte =
                    connection.pendingRequest[1];
                if (tier_byte > host::kMaxTierValue)
                    continue; // ignore nonsense, keep streaming
                applyV1TierChange(connection, tier_byte);
                continue;
            }
            markerRequests_.fetch_add(1, std::memory_order_relaxed);
            fleetMetrics().markerRequests.inc();
            registry_.entry(0).mark(
                static_cast<char>(connection.pendingRequest[1]));
        }
    }
}

void
FleetServer::applyV1TierChange(Connection &connection,
                               std::uint8_t tier_byte)
{
    if (connection.streams.empty())
        return;
    Stream &stream = *connection.streams.front();
    const auto next = static_cast<host::Tier>(tier_byte);
    fleetMetrics().tierChanges.inc();
    if (next == stream.tier)
        return;
    flushTierOpen(connection, stream);
    stream.tier = next;
    stream.haveFolded = false;
    if (next == host::Tier::Raw)
        stream.accumulator.reset();
    else
        stream.accumulator.emplace(next,
                                   stream.entry->sampleRateHz);
    flushOut(connection);
}

// ----- v2 commands -------------------------------------------------------

void
FleetServer::processV2Commands(Connection &connection)
{
    std::uint8_t buffer[4096];
    for (;;) {
        const ssize_t got =
            ::recv(connection.fd, buffer, sizeof(buffer), 0);
        if (got == 0) {
            kick(connection, false);
            return;
        }
        if (got < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            kick(connection, false);
            return;
        }
        connection.inBuf.insert(connection.inBuf.end(), buffer,
                                buffer + got);
    }

    std::size_t pos = 0;
    auto &in = connection.inBuf;
    while (pos < in.size() && !connection.kicked) {
        // Control replies (SensorList, SubscribeAck) bypass the
        // per-stream credit/high-water path, so bound them here: a
        // client that floods commands while reading nothing loses
        // the connection once the out buffer passes twice the
        // stream high-water mark.
        if (connection.pendingOut()
            >= 2 * options_.outBufferHighWater)
        {
            kick(connection, true);
            break;
        }
        const std::uint8_t op = in[pos];
        const std::size_t need = commandSize(op);
        if (need == 0) {
            protocolErrors_.fetch_add(1,
                                      std::memory_order_relaxed);
            fleetMetrics().v2ProtocolErrors.inc();
            kick(connection, true);
            break;
        }
        if (in.size() - pos < need)
            break; // partial command; wait for the rest
        const std::uint8_t *body = in.data() + pos + 1;
        switch (op) {
          case kOpListSensors: {
            const std::size_t offset =
                beginV2Frame(connection.out, kControlStreamId,
                             FrameType::SensorList);
            encodeSensorList(connection.out, registry_.describe());
            closeV2Frame(connection.out, offset);
            break;
          }
          case kOpSubscribe: {
            const auto request =
                SubscribeRequest::decode(body, need - 1);
            if (!request) {
                protocolErrors_.fetch_add(
                    1, std::memory_order_relaxed);
                fleetMetrics().v2ProtocolErrors.inc();
                kick(connection, true);
                break;
            }
            handleSubscribe(connection, *request);
            break;
          }
          case kOpUnsubscribe: {
            Stream *stream =
                findStream(connection, readU16(body));
            if (stream != nullptr)
                removeStream(connection, *stream, true);
            break;
          }
          case kOpCredit: {
            Stream *stream =
                findStream(connection, readU16(body));
            if (stream == nullptr)
                break;
            const std::uint32_t delta = readU32(body + 2);
            if (delta == kUnlimitedCredit)
                stream->credit = kNoCreditLimit;
            else if (stream->credit != kNoCreditLimit) {
                const std::uint64_t next =
                    stream->credit + delta;
                stream->credit =
                    next < stream->credit ? kNoCreditLimit : next;
            }
            stream->creditStalled = false;
            // pumpStream may removeStream (Block lap) and free it;
            // keep only the sensor id across the call.
            const std::uint16_t sensor_id = stream->sensorId;
            pumpStream(connection, *stream);
            if (!connection.kicked)
                armDoorbell(sensor_id);
            break;
          }
          case kOpMarker: {
            const std::uint16_t sensor_id = readU16(body);
            if (sensor_id < registry_.size()) {
                markerRequests_.fetch_add(
                    1, std::memory_order_relaxed);
                fleetMetrics().markerRequests.inc();
                registry_.entry(sensor_id)
                    .mark(static_cast<char>(body[2]));
            }
            break;
          }
          default:
            break; // unreachable: commandSize gated above
        }
        pos += need;
    }
    in.erase(in.begin(),
             in.begin() + static_cast<std::ptrdiff_t>(pos));
    if (!connection.kicked)
        flushOut(connection);
}

void
FleetServer::handleSubscribe(Connection &connection,
                             const SubscribeRequest &request)
{
    SubscribeStatus status = SubscribeStatus::Ok;
    if (request.streamId == kControlStreamId)
        status = SubscribeStatus::BadStreamId;
    else if (request.rawTier > host::kMaxTierValue)
        status = SubscribeStatus::BadTier;
    else if (request.sensorId >= registry_.size())
        status = SubscribeStatus::UnknownSensor;
    else if (findStream(connection, request.streamId) != nullptr)
        status = SubscribeStatus::StreamIdInUse;
    else if (connection.streams.size()
             >= options_.maxStreamsPerConnection)
        status = SubscribeStatus::TooManyStreams;

    SubscribeAckFrame ack;
    ack.streamId = request.streamId;
    ack.sensorId = request.sensorId;
    ack.status = status;
    ack.sampleRateHz =
        status == SubscribeStatus::Ok
            ? registry_.entry(request.sensorId).sampleRateHz
            : 0.0;
    const std::size_t offset = beginV2Frame(
        connection.out, kControlStreamId, FrameType::SubscribeAck);
    ack.encode(connection.out);
    closeV2Frame(connection.out, offset);
    if (status != SubscribeStatus::Ok)
        return;

    auto &entry = registry_.entry(request.sensorId);
    auto stream = std::make_unique<Stream>();
    stream->id = request.streamId;
    stream->sensorId = request.sensorId;
    stream->entry = &entry;
    const std::uint64_t tail = entry.ring->tail();
    stream->cursor.reset(tail);
    stream->nextSeq = tail;
    stream->credit = request.credit == kUnlimitedCredit
                         ? kNoCreditLimit
                         : request.credit;
    stream->overflow = request.overflow;
    stream->tier = request.tier;
    if (stream->tier != host::Tier::Raw) {
        stream->accumulator.emplace(stream->tier,
                                    entry.sampleRateHz);
        fleetMetrics().tierSubscribers.inc();
    }
    stream->lastActivity = std::chrono::steady_clock::now();
    Stream *raw = stream.get();
    connection.streams.push_back(std::move(stream));
    streamsBySensor_[request.sensorId].push_back(
        {&connection, raw});
    fleetMetrics().v2StreamsOpened.inc();
    fleetMetrics().v2StreamsActive.add();
    pumpStream(connection, *raw);
    if (!connection.kicked)
        armDoorbell(request.sensorId);
}

// ----- pumping -----------------------------------------------------------

FleetServer::Stream *
FleetServer::findStream(Connection &connection,
                        std::uint16_t stream_id)
{
    for (auto &stream : connection.streams) {
        if (stream->id == stream_id)
            return stream.get();
    }
    return nullptr;
}

std::size_t
FleetServer::beginStreamFrame(Connection &connection,
                              Stream &stream,
                              std::uint64_t first_seq)
{
    auto &out = connection.out;
    if (connection.phase == Connection::Phase::V2Mux) {
        const std::size_t offset =
            beginV2Frame(out, stream.id, FrameType::Data);
        appendU64(out, first_seq);
        return offset;
    }
    const std::size_t offset = out.size();
    out.resize(offset + 4); // length prefix, patched on close
    if (connection.minor >= 1)
        appendU64(out, first_seq);
    return offset;
}

void
FleetServer::closeStreamFrame(Connection &connection,
                              std::size_t offset)
{
    auto &out = connection.out;
    const std::uint32_t payload =
        static_cast<std::uint32_t>(out.size() - offset - 4);
    out[offset + 0] = static_cast<std::uint8_t>(payload & 0xFF);
    out[offset + 1] =
        static_cast<std::uint8_t>((payload >> 8) & 0xFF);
    out[offset + 2] =
        static_cast<std::uint8_t>((payload >> 16) & 0xFF);
    out[offset + 3] =
        static_cast<std::uint8_t>((payload >> 24) & 0xFF);
}

void
FleetServer::pumpConnection(Connection &connection)
{
    if (connection.kicked || connection.closeAfterFlush)
        return;
    if (connection.phase != Connection::Phase::V1Stream
        && connection.phase != Connection::Phase::V2Mux)
        return;
    // Snapshot ids: pumpStream may remove the stream it pumps.
    std::vector<std::uint16_t> ids;
    ids.reserve(connection.streams.size());
    for (const auto &stream : connection.streams)
        ids.push_back(stream->id);
    for (const std::uint16_t id : ids) {
        Stream *stream = findStream(connection, id);
        if (stream == nullptr)
            continue;
        pumpStream(connection, *stream);
        if (connection.kicked)
            break;
    }
    if (!connection.kicked)
        flushOut(connection);
}

void
FleetServer::pumpStream(Connection &connection, Stream &stream)
{
    if (connection.kicked || connection.closeAfterFlush)
        return;
    auto &ring = *stream.entry->ring;
    for (;;) {
        if (connection.pendingOut() >= options_.outBufferHighWater)
            return; // backpressure: EPOLLOUT resumes us
        if (stream.credit == 0) {
            if (!stream.creditStalled) {
                stream.creditStalled = true;
                fleetMetrics().creditStalls.inc();
            }
            return;
        }
        if (stream.overflow == transport::RingOverflow::Block) {
            // claim() silently skips a lapped cursor — exactly what
            // a Block stream promised never happens. Detect the lap
            // first and end the stream instead.
            const std::uint64_t oldest = ring.oldest();
            if (oldest > stream.cursor.position()) {
                const std::uint64_t lost =
                    oldest - stream.cursor.position();
                recordsDropped_.fetch_add(
                    lost, std::memory_order_relaxed);
                fleetMetrics().recordsDropped.inc(lost);
                if (connection.phase
                    == Connection::Phase::V2Mux)
                    removeStream(connection, stream, true);
                else
                    kick(connection, true);
                return;
            }
        }
        const std::size_t max = static_cast<std::size_t>(
            std::min<std::uint64_t>(options_.batchRecords,
                                    stream.credit));
        const auto claim = stream.cursor.claim(ring, max);
        if (claim.count == 0)
            return; // caught up
        if (stream.accumulator)
            pumpTierClaim(connection, stream, claim.first,
                          claim.count);
        else
            pumpRawClaim(connection, stream, claim.first,
                         claim.count);
        if (connection.kicked)
            return;
    }
}

void
FleetServer::pumpRawClaim(Connection &connection, Stream &stream,
                          std::uint64_t first, std::size_t count)
{
    auto &ring = *stream.entry->ring;
    auto &out = connection.out;
    bool frame_open = false;
    std::size_t frame_offset = 0;
    std::size_t frame_records = 0;
    std::uint64_t frames = 0;

    auto closeFrame = [&] {
        if (!frame_open)
            return;
        closeStreamFrame(connection, frame_offset);
        frame_open = false;
        ++frames;
    };
    // Lost between claim and copy, or a length word out of range:
    // count it, break the frame so firstSeq stays exact.
    auto dropRecord = [&] {
        stream.cursor.countDropped(1);
        if (frame_open && frame_records == 0) {
            out.resize(frame_offset); // nothing went into it
            frame_open = false;
        }
        closeFrame();
    };

    for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t seq = first + i;
        const std::uint64_t len = ring.wordAt(seq, kSlotLenWord);
        if (len < kMinEncodedRecordBytes || len > kMaxEncodedRecordBytes) {
            dropRecord();
            continue;
        }
        if (!frame_open) {
            frame_offset = beginStreamFrame(connection, stream, seq);
            frame_open = true;
            frame_records = 0;
        }
        // Copy the slot words straight into the out buffer, then
        // validate the slot once: a record overwritten mid-copy is
        // cut back out, never torn onto the wire.
        const std::size_t at = out.size();
        const std::size_t words =
            (static_cast<std::size_t>(len) + 7) / 8;
        out.resize(at + words * 8);
        std::uint8_t *dst = out.data() + at;
        for (std::size_t w = 0; w < words; ++w) {
            const std::uint64_t word =
                ring.wordAt(seq, kSlotEncodedOffset / 8 + w);
            std::memcpy(dst + w * 8, &word, 8);
        }
        if (!ring.stillValid(seq)) {
            out.resize(at);
            dropRecord();
            continue;
        }
        out.resize(at + static_cast<std::size_t>(len));
        ++frame_records;
        if (stream.credit != kNoCreditLimit)
            --stream.credit;
    }
    closeFrame();
    stream.nextSeq = first + count;
    stream.lastActivity = std::chrono::steady_clock::now();
    if (frames > 0)
        fleetMetrics().batches.inc(frames);
}

void
FleetServer::pumpTierClaim(Connection &connection, Stream &stream,
                           std::uint64_t first, std::size_t count)
{
    auto &ring = *stream.entry->ring;
    auto &out = connection.out;
    auto &accumulator = *stream.accumulator;

    bool aggregate_open = false;
    std::size_t frame_offset = 0;
    // Metrics add once per pump, not per frame or bucket.
    std::uint64_t frames = 0;
    std::uint64_t buckets = 0;
    auto shipAggregate = [&] {
        if (!aggregate_open)
            return;
        closeStreamFrame(connection, frame_offset);
        aggregate_open = false;
        ++frames;
    };
    auto appendBucket = [&](const host::HistoryBucket &bucket,
                            std::uint64_t first_seq) {
        if (!aggregate_open) {
            frame_offset =
                beginStreamFrame(connection, stream, first_seq);
            aggregate_open = true;
        }
        encodeBucket(out, stream.tier, bucket);
        ++buckets;
        if (stream.credit != kNoCreditLimit && stream.credit > 0)
            --stream.credit;
    };
    auto flushOpen = [&] {
        host::HistoryBucket closed;
        if (accumulator.flush(closed))
            appendBucket(closed, stream.openFirstSeq);
    };

    host::DumpRecord record;
    for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t seq = first + i;
        if (readSlot(ring, seq, record) != SlotRead::Ok) {
            // Overwritten between claim and copy, or undecodable:
            // dropped and counted, never folded.
            stream.cursor.countDropped(1);
            continue;
        }
        if (stream.haveFolded && accumulator.openSamples() > 0
            && seq != stream.nextFoldSeq)
        {
            flushOpen();
            shipAggregate(); // seq hole: frame break
        }
        if (record.marker) {
            flushOpen();
            shipAggregate(); // marker rides its own frame
            const std::size_t marker_offset =
                beginStreamFrame(connection, stream, seq);
            encodeRecord(out, record);
            closeStreamFrame(connection, marker_offset);
            ++frames;
            if (stream.credit != kNoCreditLimit
                && stream.credit > 0)
                --stream.credit;
            stream.nextSeq = seq + 1;
        } else {
            if (accumulator.openSamples() == 0)
                stream.openFirstSeq = seq;
            const std::uint64_t closed_first = stream.openFirstSeq;
            host::HistoryBucket closed;
            if (accumulator.fold(record.time, record.presentMask,
                                 record.voltage, record.current,
                                 closed))
            {
                appendBucket(closed, closed_first);
                if (out.size() - frame_offset >= 4096)
                    shipAggregate();
                stream.openFirstSeq = seq;
            }
            // Heartbeats must announce the first seq the client has
            // not yet accounted for — the open bucket's start while
            // one is pending.
            stream.nextSeq = accumulator.openSamples() > 0
                                 ? stream.openFirstSeq
                                 : seq + 1;
        }
        stream.nextFoldSeq = seq + 1;
        stream.haveFolded = true;
    }
    shipAggregate();
    stream.lastActivity = std::chrono::steady_clock::now();
    if (frames > 0)
        fleetMetrics().batches.inc(frames);
    if (buckets > 0)
        fleetMetrics().tierBuckets.inc(buckets);
}

void
FleetServer::flushTierOpen(Connection &connection, Stream &stream)
{
    if (!stream.accumulator)
        return;
    host::HistoryBucket closed;
    if (stream.accumulator->flush(closed)) {
        const std::size_t offset = beginStreamFrame(
            connection, stream, stream.openFirstSeq);
        encodeBucket(connection.out, stream.tier, closed);
        closeStreamFrame(connection, offset);
        fleetMetrics().tierBuckets.inc();
        fleetMetrics().batches.inc();
    }
    if (stream.haveFolded)
        stream.nextSeq = stream.nextFoldSeq;
}

void
FleetServer::pumpSensor(std::uint16_t sensor_id)
{
    struct Target
    {
        int fd;
        std::uint16_t streamId;
    };
    std::vector<Target> targets;
    targets.reserve(streamsBySensor_[sensor_id].size());
    for (const auto &ref : streamsBySensor_[sensor_id]) {
        if (!ref.connection->kicked)
            targets.push_back(
                {ref.connection->fd, ref.stream->id});
    }
    for (const Target &target : targets) {
        const auto it = connections_.find(target.fd);
        if (it == connections_.end())
            continue;
        Connection &connection = *it->second;
        if (connection.kicked)
            continue;
        Stream *stream = findStream(connection, target.streamId);
        if (stream == nullptr || stream->sensorId != sensor_id)
            continue;
        pumpStream(connection, *stream);
        if (!connection.kicked)
            flushOut(connection);
    }
}

void
FleetServer::onDoorbell(std::uint16_t sensor_id)
{
    auto &entry = registry_.entry(sensor_id);
    std::uint64_t value = 0;
    [[maybe_unused]] const ssize_t n =
        ::read(entry.doorbellFd, &value, sizeof(value));
    pumpSensor(sensor_id);
    armDoorbell(sensor_id);
    sweepKicked();
}

void
FleetServer::armDoorbell(std::uint16_t sensor_id)
{
    auto &entry = registry_.entry(sensor_id);
    for (int round = 0;; ++round) {
        // Who is actually waiting for a publish? Credit-stalled and
        // backpressured streams resume through their own events
        // (credit command, EPOLLOUT), so they don't hold the
        // doorbell armed — and with no subscriber at all the
        // doorbell stays dark, which is the unwatched-sensor
        // zero-syscall guarantee.
        bool hungry = false;
        std::uint64_t min_pos = ~0ull;
        for (const auto &ref : streamsBySensor_[sensor_id]) {
            if (ref.connection->kicked
                || ref.connection->closeAfterFlush)
                continue;
            if (ref.stream->creditStalled)
                continue;
            if (ref.connection->pendingOut()
                >= options_.outBufferHighWater)
                continue;
            hungry = true;
            min_pos = std::min(min_pos,
                               ref.stream->cursor.position());
        }
        if (!hungry)
            return;
        entry.doorbellArmed.store(true, std::memory_order_seq_cst);
        if (entry.ring->tail() <= min_pos)
            return; // armed; nothing raced in
        // A publish raced the arm. Reclaim the token if it is still
        // ours and pump; if the producer took it, the eventfd is
        // pending and the loop re-enters us.
        if (!entry.doorbellArmed.exchange(
                false, std::memory_order_seq_cst))
            return;
        if (round >= 4) {
            // Producer outpacing us: self-ring instead of looping,
            // so other descriptors get a turn.
            const std::uint64_t one = 1;
            [[maybe_unused]] const ssize_t w =
                ::write(entry.doorbellFd, &one, sizeof(one));
            return;
        }
        pumpSensor(sensor_id);
    }
}

// ----- output ------------------------------------------------------------

void
FleetServer::appendHeartbeat(Connection &connection, Stream &stream)
{
    if (connection.phase == Connection::Phase::V2Mux) {
        const std::size_t offset = beginV2Frame(
            connection.out, stream.id, FrameType::Heartbeat);
        appendU64(connection.out, stream.nextSeq);
        closeV2Frame(connection.out, offset);
    } else {
        if (connection.minor < 1)
            return;
        const auto beat = encodeHeartbeat(stream.nextSeq);
        connection.out.insert(connection.out.end(), beat.begin(),
                              beat.end());
    }
    heartbeatsSent_.fetch_add(1, std::memory_order_relaxed);
    fleetMetrics().heartbeats.inc();
    stream.lastActivity = std::chrono::steady_clock::now();
}

void
FleetServer::flushOut(Connection &connection)
{
    if (connection.kicked)
        return;
    auto &out = connection.out;
    while (connection.outHead < out.size()) {
        const ssize_t n = ::send(
            connection.fd, out.data() + connection.outHead,
            out.size() - connection.outHead, MSG_NOSIGNAL);
        if (n > 0) {
            connection.outHead += static_cast<std::size_t>(n);
            connection.lastWriteProgress =
                std::chrono::steady_clock::now();
            fleetMetrics().bytes.inc(
                static_cast<std::uint64_t>(n));
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        kick(connection, false);
        return;
    }
    if (connection.outHead == out.size()) {
        out.clear();
        connection.outHead = 0;
        connection.lastWriteProgress =
            std::chrono::steady_clock::now();
        if (connection.closeAfterFlush)
            kick(connection, false);
    } else if (connection.outHead > kCompactThreshold) {
        out.erase(out.begin(),
                  out.begin()
                      + static_cast<std::ptrdiff_t>(
                          connection.outHead));
        connection.outHead = 0;
    }
    updateWriteInterest(connection);
}

void
FleetServer::updateWriteInterest(Connection &connection)
{
    if (connection.kicked)
        return;
    const bool want = connection.pendingOut() > 0;
    if (want == connection.wantWrite)
        return;
    connection.wantWrite = want;
    loop_.modify(connection.fd,
                 EPOLLIN | (want ? EPOLLOUT : 0u));
}

void
FleetServer::onWritable(Connection &connection)
{
    flushOut(connection);
    if (connection.kicked || connection.closeAfterFlush)
        return;
    if (connection.pendingOut() > 0)
        return;
    // The kernel drained us: claim whatever accumulated while we
    // were backpressured, then put the doorbells back in play.
    pumpConnection(connection);
    if (connection.kicked)
        return;
    std::vector<std::uint16_t> sensors;
    for (const auto &stream : connection.streams) {
        if (std::find(sensors.begin(), sensors.end(),
                      stream->sensorId)
            == sensors.end())
            sensors.push_back(stream->sensorId);
    }
    for (const std::uint16_t sensor_id : sensors)
        armDoorbell(sensor_id);
}

// ----- lifecycle ---------------------------------------------------------

void
FleetServer::kick(Connection &connection, bool server_fault)
{
    if (connection.kicked)
        return;
    connection.kicked = true;
    connection.kickedFault = server_fault;
    if (server_fault) {
        subscribersDropped_.fetch_add(1,
                                      std::memory_order_relaxed);
        fleetMetrics().subscribersDropped.inc();
    }
}

void
FleetServer::harvestDrops(Stream &stream)
{
    const std::uint64_t drops = stream.cursor.dropped();
    if (drops == stream.publishedDrops)
        return;
    const std::uint64_t delta = drops - stream.publishedDrops;
    stream.publishedDrops = drops;
    recordsDropped_.fetch_add(delta, std::memory_order_relaxed);
    fleetMetrics().recordsDropped.inc(delta);
}

void
FleetServer::removeStream(Connection &connection, Stream &stream,
                          bool send_eos)
{
    if (send_eos && connection.phase == Connection::Phase::V2Mux) {
        flushTierOpen(connection, stream);
        // Final heartbeat pins the end sequence (gap accounting for
        // whatever the client never saw), then the stream's EOS.
        appendHeartbeat(connection, stream);
        const std::size_t offset = beginV2Frame(
            connection.out, stream.id, FrameType::Eos);
        closeV2Frame(connection.out, offset);
    }
    harvestDrops(stream);
    auto &refs = streamsBySensor_[stream.sensorId];
    refs.erase(std::remove_if(refs.begin(), refs.end(),
                              [&](const StreamRef &ref) {
                                  return ref.stream == &stream;
                              }),
               refs.end());
    if (connection.phase == Connection::Phase::V2Mux)
        fleetMetrics().v2StreamsActive.sub();
    auto &streams = connection.streams;
    streams.erase(
        std::remove_if(streams.begin(), streams.end(),
                       [&](const std::unique_ptr<Stream> &s) {
                           return s.get() == &stream;
                       }),
        streams.end());
}

void
FleetServer::closeConnection(Connection &connection)
{
    const int fd = connection.fd;
    for (auto &stream : connection.streams) {
        harvestDrops(*stream);
        auto &refs = streamsBySensor_[stream->sensorId];
        refs.erase(
            std::remove_if(refs.begin(), refs.end(),
                           [&](const StreamRef &ref) {
                               return ref.stream == stream.get();
                           }),
            refs.end());
        if (connection.phase == Connection::Phase::V2Mux)
            fleetMetrics().v2StreamsActive.sub();
    }
    if (connection.counted) {
        subscriberCount_.fetch_sub(1, std::memory_order_relaxed);
        fleetMetrics().active.sub();
    }
    loop_.remove(fd);
    ::close(fd);
    connections_.erase(fd);
    if (draining_ && connections_.empty())
        loopExit_.store(true, std::memory_order_release);
    maybeDisarmTimer();
}

void
FleetServer::sweepKicked()
{
    for (;;) {
        Connection *victim = nullptr;
        for (auto &pair : connections_) {
            if (pair.second->kicked) {
                victim = pair.second.get();
                break;
            }
        }
        if (victim == nullptr)
            return;
        closeConnection(*victim);
    }
}

void
FleetServer::maybeDisarmTimer()
{
    if (connections_.empty() && !draining_ && timer_.armed())
        timer_.disarm();
}

// ----- periodic work -----------------------------------------------------

void
FleetServer::onTick()
{
    timer_.drain();
    const auto now = std::chrono::steady_clock::now();

    // The ring heartbeat is cross-process liveness for shm
    // subscribers (Ps3Server paced this off its accept loop).
    for (std::uint16_t id = 0;
         id < static_cast<std::uint16_t>(registry_.size()); ++id)
        registry_.entry(id).ring->bumpHeartbeat();

    std::vector<int> fds;
    fds.reserve(connections_.size());
    for (const auto &pair : connections_)
        fds.push_back(pair.first);

    std::int64_t max_lag = 0;
    for (const int fd : fds) {
        const auto it = connections_.find(fd);
        if (it == connections_.end())
            continue;
        Connection &connection = *it->second;
        if (connection.kicked)
            continue;
        switch (connection.phase) {
          case Connection::Phase::Hello:
            if (now > connection.helloDeadline)
                kick(connection, false);
            break;
          case Connection::Phase::ShmControl:
            break; // liveness rides the ring heartbeat
          case Connection::Phase::V1Stream:
          case Connection::Phase::V2Mux: {
            pumpConnection(connection);
            if (connection.kicked)
                break;
            for (auto &stream : connection.streams) {
                harvestDrops(*stream);
                max_lag = std::max(
                    max_lag,
                    static_cast<std::int64_t>(
                        stream->entry->ring->tail()
                        - stream->cursor.position()));
                const bool beats =
                    connection.phase == Connection::Phase::V2Mux
                    || connection.minor >= 1;
                if (beats && options_.heartbeatInterval > 0.0
                    && std::chrono::duration<double>(
                           now - stream->lastActivity)
                               .count()
                           >= options_.heartbeatInterval)
                    appendHeartbeat(connection, *stream);
            }
            flushOut(connection);
            if (!connection.kicked
                && connection.pendingOut() > 0
                && options_.writeTimeout > 0.0
                && std::chrono::duration<double>(
                       now - connection.lastWriteProgress)
                           .count()
                       > options_.writeTimeout)
            {
                fleetMetrics().writeTimeouts.inc();
                kick(connection, true);
            }
            break;
          }
        }
    }
    fleetMetrics().queueDepth.set(max_lag);

    if (draining_) {
        if (now > drainDeadline_) {
            for (auto &pair : connections_)
                kick(*pair.second, false);
        }
    }
    sweepKicked();
    if (draining_ && connections_.empty())
        loopExit_.store(true, std::memory_order_release);
    maybeDisarmTimer();
}

// ----- shutdown ----------------------------------------------------------

void
FleetServer::beginDrain()
{
    if (draining_)
        return;
    draining_ = true;
    drainDeadline_ =
        std::chrono::steady_clock::now()
        + std::chrono::duration_cast<
              std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(
                  options_.drainTimeout));

    // Stop accepting: deregister and close every listener (the
    // SocketListener destructor reclaims unix socket paths).
    for (auto &slot : listeners_)
        loop_.remove(slot.listener->nativeHandle());
    listeners_.clear();

    std::vector<int> fds;
    fds.reserve(connections_.size());
    for (const auto &pair : connections_)
        fds.push_back(pair.first);
    for (const int fd : fds) {
        const auto it = connections_.find(fd);
        if (it == connections_.end())
            continue;
        Connection &connection = *it->second;
        switch (connection.phase) {
          case Connection::Phase::Hello:
          case Connection::Phase::ShmControl:
            // Mid-handshake: nothing promised. shm: the ring's
            // producer-gone flag (SensorRegistry::stopAll) is the
            // end-of-stream signal; the control socket just closes.
            kick(connection, false);
            break;
          case Connection::Phase::V1Stream:
          case Connection::Phase::V2Mux: {
            // Drain to the (now stable) ring tail, flush partial
            // buckets, pin the end sequence with a heartbeat, then
            // end-of-stream and close once the kernel accepts it
            // all.
            pumpConnection(connection);
            if (connection.kicked)
                break;
            for (auto &stream : connection.streams) {
                flushTierOpen(connection, *stream);
                appendHeartbeat(connection, *stream);
                if (connection.phase
                    == Connection::Phase::V2Mux) {
                    const std::size_t offset =
                        beginV2Frame(connection.out, stream->id,
                                     FrameType::Eos);
                    closeV2Frame(connection.out, offset);
                }
            }
            if (connection.phase == Connection::Phase::V2Mux) {
                // EOS on the control stream: the session is over.
                const std::size_t offset =
                    beginV2Frame(connection.out, kControlStreamId,
                                 FrameType::Eos);
                closeV2Frame(connection.out, offset);
            } else {
                const std::uint8_t eos[4] = {0, 0, 0, 0};
                connection.out.insert(connection.out.end(), eos,
                                      eos + sizeof(eos));
            }
            connection.closeAfterFlush = true;
            flushOut(connection);
            break;
          }
        }
    }
    sweepKicked();
    if (connections_.empty())
        loopExit_.store(true, std::memory_order_release);
    else
        timer_.armPeriodic(0.05); // enforce the drain deadline
}

void
FleetServer::stop()
{
    std::lock_guard<std::mutex> lock(stopMutex_);
    if (stopped_.exchange(true, std::memory_order_acq_rel))
        return;
    post([this] { beginDrain(); });
    if (thread_.joinable())
        thread_.join();
}

// ----- accessors ---------------------------------------------------------

std::size_t
FleetServer::subscriberCount() const
{
    return subscriberCount_.load(std::memory_order_relaxed);
}

std::uint64_t
FleetServer::recordsDropped() const
{
    return recordsDropped_.load(std::memory_order_relaxed);
}

std::uint64_t
FleetServer::markerRequests() const
{
    return markerRequests_.load(std::memory_order_relaxed);
}

std::uint64_t
FleetServer::heartbeatsSent() const
{
    return heartbeatsSent_.load(std::memory_order_relaxed);
}

std::uint64_t
FleetServer::subscribersDropped() const
{
    return subscribersDropped_.load(std::memory_order_relaxed);
}

std::uint64_t
FleetServer::protocolErrors() const
{
    return protocolErrors_.load(std::memory_order_relaxed);
}

std::uint64_t
FleetServer::loopWakeups() const
{
    return loop_.wakeups();
}

} // namespace ps3::net
