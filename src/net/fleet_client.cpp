#include "net/fleet_client.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>

#include "common/errors.hpp"

namespace ps3::net {

namespace {

/** Sanity bound on a v2 frame payload (header + seq + batch). */
constexpr std::size_t kMaxFramePayload =
    kV2FrameHeaderSize + kBatchSeqHeaderSize + kMaxBatchBytes;

/** Free buffer space every socket read gets at least. */
constexpr std::size_t kReadChunk = 16384;

std::uint16_t
getU16(const std::uint8_t *p)
{
    return static_cast<std::uint16_t>(p[0]
                                      | (std::uint16_t(p[1]) << 8));
}

std::uint32_t
getU32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0])
           | (static_cast<std::uint32_t>(p[1]) << 8)
           | (static_cast<std::uint32_t>(p[2]) << 16)
           | (static_cast<std::uint32_t>(p[3]) << 24);
}

/** Decode-callback context: the event being filled in. */
struct DecodeSink
{
    FleetClient::Event *event;
    std::uint64_t advanced = 0; ///< sequences consumed by the frame
};

void
onRecord(void *context, const host::DumpRecord &record)
{
    auto *sink = static_cast<DecodeSink *>(context);
    sink->event->records.push_back(record);
    sink->advanced += 1;
}

void
onBucket(void *context, host::Tier tier,
         const host::HistoryBucket &bucket)
{
    auto *sink = static_cast<DecodeSink *>(context);
    sink->event->buckets.emplace_back(tier, bucket);
    sink->advanced += bucket.samples;
}

} // namespace

std::unique_ptr<FleetClient>
FleetClient::connect(const transport::Endpoint &endpoint,
                     double timeout_seconds)
{
    auto socket =
        transport::SocketDevice::connect(endpoint, timeout_seconds);

    const std::vector<std::uint8_t> hello = encodeClientHelloV2();
    socket->write(hello.data(), hello.size());

    const auto deadline =
        std::chrono::steady_clock::now()
        + std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(timeout_seconds));
    auto readExact = [&](std::uint8_t *out, std::size_t need) {
        std::size_t got = 0;
        while (got < need) {
            const double left =
                std::chrono::duration<double>(
                    deadline - std::chrono::steady_clock::now())
                    .count();
            if (left <= 0.0)
                throw DeviceError(
                    "fleet connect: handshake timed out");
            const std::size_t n =
                socket->read(out + got, need - got, left);
            if (n == 0 && socket->closed())
                throw DeviceError("fleet connect: server closed "
                                  "the connection mid-handshake");
            got += n;
        }
    };

    std::uint8_t prefix[kServerHelloPrefixSize];
    readExact(prefix, sizeof prefix);
    HelloStatus status = HelloStatus::Ok;
    const std::size_t payload_len =
        decodeServerHelloV2Prefix(prefix, sizeof prefix, status);
    std::vector<std::uint8_t> payload(payload_len);
    if (payload_len > 0)
        readExact(payload.data(), payload_len);
    if (status != HelloStatus::Ok)
        throw DeviceError("fleet connect: server refused the "
                          "session: "
                          + describeStatus(status));

    std::unique_ptr<FleetClient> client(new FleetClient());
    client->sensorCount_ =
        decodeServerHelloV2Payload(payload.data(), payload.size());
    client->socket_ = std::move(socket);
    return client;
}

void
FleetClient::requestSensorList()
{
    std::vector<std::uint8_t> out;
    encodeListSensors(out);
    socket_->write(out.data(), out.size());
}

void
FleetClient::subscribe(std::uint16_t stream_id,
                       std::uint16_t sensor_id, host::Tier tier,
                       transport::RingOverflow overflow,
                       std::uint32_t credit)
{
    SubscribeRequest request;
    request.streamId = stream_id;
    request.sensorId = sensor_id;
    request.tier = tier;
    request.overflow = overflow;
    request.credit = credit;
    std::vector<std::uint8_t> out;
    request.encode(out);
    socket_->write(out.data(), out.size());
}

void
FleetClient::unsubscribe(std::uint16_t stream_id)
{
    std::vector<std::uint8_t> out;
    encodeUnsubscribe(out, stream_id);
    socket_->write(out.data(), out.size());
}

void
FleetClient::addCredit(std::uint16_t stream_id, std::uint32_t delta)
{
    std::vector<std::uint8_t> out;
    encodeCredit(out, stream_id, delta);
    socket_->write(out.data(), out.size());
}

void
FleetClient::mark(std::uint16_t sensor_id, char marker)
{
    std::vector<std::uint8_t> out;
    encodeMarkerV2(out, sensor_id, marker);
    socket_->write(out.data(), out.size());
}

void
FleetClient::abort()
{
    socket_->abort();
}

FleetClient::StreamState &
FleetClient::state(std::uint16_t stream_id)
{
    return streams_[stream_id];
}

bool
FleetClient::poll(Event &event, double timeout_seconds)
{
    event = Event{};
    const auto deadline =
        std::chrono::steady_clock::now()
        + std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(timeout_seconds));
    for (;;) {
        if (parseFrame(event))
            return true;
        if (closed_) {
            if (closeReported_)
                return false;
            closeReported_ = true;
            event.kind = Event::Kind::ConnectionClosed;
            return true;
        }
        const double left =
            std::chrono::duration<double>(
                deadline - std::chrono::steady_clock::now())
                .count();
        if (left <= 0.0)
            return false;
        if (inHead_ > 0) {
            std::memmove(inBuf_.data(), inBuf_.data() + inHead_,
                         inTail_ - inHead_);
            inTail_ -= inHead_;
            inHead_ = 0;
        }
        if (inBuf_.size() - inTail_ < kReadChunk)
            inBuf_.resize(
                std::max(2 * inBuf_.size(), inTail_ + kReadChunk));
        const std::size_t n =
            socket_->read(inBuf_.data() + inTail_,
                          inBuf_.size() - inTail_, left);
        if (n == 0) {
            if (socket_->closed())
                closed_ = true;
            continue;
        }
        inTail_ += n;
    }
}

bool
FleetClient::parseFrame(Event &event)
{
    const std::size_t available = inTail_ - inHead_;
    if (available < 4)
        return false;
    const std::uint8_t *frame = inBuf_.data() + inHead_;
    const std::uint32_t len = getU32(frame);
    if (len < kV2FrameHeaderSize || len > kMaxFramePayload)
        throw DeviceError("fleet stream: implausible frame length "
                          + std::to_string(len));
    if (available < 4 + static_cast<std::size_t>(len))
        return false;

    const std::uint8_t *payload = frame + 4;
    const std::uint16_t stream_id = getU16(payload);
    const std::uint8_t type = payload[2];
    const std::uint8_t *body = payload + kV2FrameHeaderSize;
    const std::size_t body_len = len - kV2FrameHeaderSize;

    event.streamId = stream_id;
    switch (static_cast<FrameType>(type)) {
    case FrameType::Data: {
        if (body_len < kBatchSeqHeaderSize)
            throw DeviceError(
                "fleet stream: data frame missing its sequence "
                "header");
        event.firstSeq = readU64(body);
        StreamState &st = state(stream_id);
        const std::uint8_t *batch = body + kBatchSeqHeaderSize;
        const std::size_t batch_len = body_len - kBatchSeqHeaderSize;
        // One allocation per frame: a stream's records share one
        // size, so the batch length over the first record's size
        // is the count.
        const std::size_t mask_at =
            batch_len > 0 && batch[0] == 'M' ? kMarkerPrefixBytes + 1
                                             : 1;
        if (batch_len > 0 && batch[0] == 'A')
            event.buckets.reserve(batch_len / kBucketRecordFixedSize);
        else if (batch_len > mask_at)
            event.records.reserve(
                batch_len
                / (kMinEncodedRecordBytes
                   + 16 * static_cast<std::size_t>(
                       std::popcount(batch[mask_at]))));
        DecodeSink sink{&event, 0};
        st.decoder.feed(batch, batch_len, &sink, &onRecord,
                        &onBucket);
        if (st.sampleRateHz > 0.0) {
            for (auto &entry : event.buckets)
                entry.second.energyJoules =
                    entry.second.sumPower / st.sampleRateHz;
        }
        if (st.haveSeq && event.firstSeq > st.expectSeq) {
            event.gapRecords = event.firstSeq - st.expectSeq;
            gapTotal_ += event.gapRecords;
        }
        st.expectSeq = event.firstSeq + sink.advanced;
        st.haveSeq = true;
        // A marker-only batch decodes to nothing visible; surface
        // it as a heartbeat-grade event rather than a phantom.
        event.kind = !event.buckets.empty()
                         ? Event::Kind::Buckets
                         : Event::Kind::Records;
        break;
    }
    case FrameType::Heartbeat: {
        if (body_len < 8)
            throw DeviceError(
                "fleet stream: truncated heartbeat frame");
        const std::uint64_t next_seq = readU64(body);
        StreamState &st = state(stream_id);
        event.firstSeq = next_seq;
        if (st.haveSeq && next_seq > st.expectSeq) {
            event.gapRecords = next_seq - st.expectSeq;
            gapTotal_ += event.gapRecords;
        }
        if (!st.haveSeq || next_seq > st.expectSeq)
            st.expectSeq = next_seq;
        st.haveSeq = true;
        event.kind = Event::Kind::Heartbeat;
        break;
    }
    case FrameType::Eos:
        streams_.erase(stream_id);
        if (stream_id == kControlStreamId)
            closed_ = true; // session over; socket follows
        event.kind = Event::Kind::StreamEnd;
        break;
    case FrameType::SensorList:
        event.sensors = decodeSensorList(body, body_len);
        event.kind = Event::Kind::Sensors;
        break;
    case FrameType::SubscribeAck: {
        event.ack = SubscribeAckFrame::decode(body, body_len);
        event.streamId = event.ack.streamId;
        if (event.ack.status == SubscribeStatus::Ok)
            state(event.ack.streamId).sampleRateHz =
                event.ack.sampleRateHz;
        event.kind = Event::Kind::SubscribeAck;
        break;
    }
    default:
        throw DeviceError("fleet stream: unknown frame type "
                          + std::to_string(type));
    }

    inHead_ += 4 + static_cast<std::size_t>(len);
    return true;
}

} // namespace ps3::net
