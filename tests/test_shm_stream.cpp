/**
 * @file
 * Shared-memory transport tests: the ShmInfo handover codec,
 * segment creation / sealing / descriptor passing, the
 * ShmSubscriber attach + zero-syscall poll contract (the data plane
 * keeps flowing with the control socket gone), exact lap
 * accounting, and NetPowerSensor end-to-end over shm:// — including
 * a daemon restart surfacing as a reconnect plus a gap event.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "common/errors.hpp"
#include "net/net_power_sensor.hpp"
#include "net/server.hpp"
#include "net/shm_stream.hpp"
#include "net/wire.hpp"
#include "transport/broadcast_ring.hpp"
#include "transport/shm_segment.hpp"
#include "transport/socket_device.hpp"

namespace ps3::net {
namespace {

using transport::Endpoint;
using transport::ShmSegment;

/** Unique Unix-socket path per test (sockets are process-scoped). */
std::string
socketPath()
{
    static std::atomic<int> counter{0};
    return "/tmp/ps3_shm_test_" + std::to_string(::getpid()) + "_"
           + std::to_string(counter.fetch_add(1)) + ".sock";
}

/** A recognisable sensor configuration for handshake echoes. */
firmware::DeviceConfig
testConfig()
{
    firmware::DeviceConfig config{};
    config[0].inUse = true;
    config[0].name = "12V-10A";
    config[0].vref = 1.65;
    config[0].slope = 0.11;
    config[1].inUse = true;
    config[1].slope = 0.09;
    return config;
}

host::DumpRecord
testRecord(double time, std::uint8_t mask)
{
    host::DumpRecord record;
    record.time = time;
    for (unsigned pair = 0; pair < host::kMaxPairs; ++pair) {
        record.voltage[pair] = 12.0 + pair;
        record.current[pair] = 0.5 * pair;
    }
    record.presentMask = mask;
    return record;
}

/** Publish one encoded record into a raw stream ring. */
void
publishSlot(StreamRing &ring, double time)
{
    StreamSlot slot{};
    slot.encodedLen = encodeRecordTo(slot.encoded, testRecord(time, 0x1));
    ring.publish(slot);
}

/** Poll `pred` until it holds or `seconds` elapse. */
template <typename Pred>
bool
waitFor(Pred pred, double seconds = 5.0)
{
    const auto deadline =
        std::chrono::steady_clock::now()
        + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(seconds));
    while (!pred()) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
}

/** Read exactly n bytes with an overall deadline. */
bool
readAll(transport::SocketDevice &socket, std::uint8_t *out,
        std::size_t n, double seconds)
{
    const auto deadline =
        std::chrono::steady_clock::now()
        + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(seconds));
    std::size_t got = 0;
    while (got < n) {
        got += socket.read(out + got, n - got, 0.2);
        if (std::chrono::steady_clock::now() > deadline)
            return false;
    }
    return true;
}

// ----- ShmInfo codec -----------------------------------------------------

TEST(ShmInfo, CodecRoundTripAndRejects)
{
    ShmInfo info;
    info.segmentBytes = 123456789;
    std::uint8_t frame[kShmInfoSize];
    info.encode(frame);

    const ShmInfo back = ShmInfo::decode(frame, sizeof frame);
    EXPECT_EQ(back.segmentBytes, 123456789u);

    EXPECT_THROW(ShmInfo::decode(frame, kShmInfoSize - 1),
                 DeviceError);

    std::uint8_t bad[kShmInfoSize];
    std::memcpy(bad, frame, sizeof frame);
    bad[0] = 'X';
    EXPECT_THROW(ShmInfo::decode(bad, sizeof bad), DeviceError);

    std::memcpy(bad, frame, sizeof frame);
    bad[4] = kShmVersion + 1;
    EXPECT_THROW(ShmInfo::decode(bad, sizeof bad), DeviceError);
}

// ----- segments ----------------------------------------------------------

TEST(ShmSegment, CreateSealsAndRoundTripsBytes)
{
    ShmSegment segment = ShmSegment::create(8192, "ps3-test");
    ASSERT_TRUE(segment.valid());
    EXPECT_GE(segment.size(), 8192u);
    ASSERT_GE(segment.fd(), 0);

    std::memset(segment.data(), 0xAB, 16);

    // Grow/shrink are sealed: a subscriber's mapping can never be
    // truncated under it.
    EXPECT_NE(::ftruncate(segment.fd(),
                          static_cast<off_t>(segment.size() * 2)),
              0);

    const int dup_fd = ::dup(segment.fd());
    ASSERT_GE(dup_fd, 0);
    ShmSegment view = ShmSegment::attach(dup_fd, true);
    ASSERT_TRUE(view.valid());
    EXPECT_EQ(view.size(), segment.size());
    EXPECT_EQ(static_cast<const std::uint8_t *>(view.data())[3],
              0xAB);
}

TEST(ShmSegment, DescriptorRidesTheControlMessage)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    ShmSegment segment = ShmSegment::create(4096, "ps3-fdpass");
    ASSERT_TRUE(segment.valid());
    static_cast<std::uint8_t *>(segment.data())[0] = 0x5A;

    const std::uint8_t payload[4] = {1, 2, 3, 4};
    transport::sendWithFd(fds[0], payload, sizeof payload,
                          segment.fd());

    std::uint8_t got[4] = {0, 0, 0, 0};
    int received_fd = -1;
    ASSERT_TRUE(transport::recvWithFd(fds[1], got, sizeof got,
                                      received_fd, 1.0));
    EXPECT_EQ(std::memcmp(got, payload, sizeof payload), 0);
    ASSERT_GE(received_fd, 0);

    ShmSegment view = ShmSegment::attach(received_fd, true);
    ASSERT_TRUE(view.valid());
    EXPECT_EQ(static_cast<const std::uint8_t *>(view.data())[0],
              0x5A);

    ::close(fds[0]);
    ::close(fds[1]);
}

// ----- stream slots ------------------------------------------------------

TEST(ShmStream, SlotExposesEncodedLengthAsOneWord)
{
    ShmSegment segment =
        ShmSegment::create(StreamRing::bytesRequired(4), "ps3-slot");
    ASSERT_TRUE(segment.valid());
    StreamRing *ring =
        StreamRing::create(segment.data(), segment.size(), 4);
    ASSERT_NE(ring, nullptr);

    StreamSlot slot{};
    slot.encodedLen = encodeRecordTo(slot.encoded, testRecord(1.5, 0x3));
    ASSERT_GT(slot.encodedLen, 0u);
    ring->publish(slot);

    // The sender peeks the length atomically before gathering.
    EXPECT_EQ(ring->wordAt(0, kSlotLenWord), slot.encodedLen);
    EXPECT_TRUE(ring->stillValid(0));

    StreamSlot out{};
    ASSERT_EQ(ring->readAt(0, out), transport::BroadcastRead::Ok);
    host::DumpRecord record;
    ASSERT_EQ(readSlot(*ring, 0, record), SlotRead::Ok);
    EXPECT_EQ(record.time, 1.5);
    EXPECT_EQ(out.encodedLen, slot.encodedLen);
    EXPECT_EQ(std::memcmp(out.encoded, slot.encoded,
                          static_cast<std::size_t>(slot.encodedLen)),
              0);

    // Fill the ring: slot 0 is reused and no longer vouches.
    for (int i = 0; i < 4; ++i)
        publishSlot(*ring, 2.0 + i);
    EXPECT_FALSE(ring->stillValid(0));
}

// ----- subscriber data plane ---------------------------------------------

TEST(ShmStream, SubscriberDrainsTheRingWithTheControlSocketGone)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    transport::SocketDevice serverSide(fds[0]);
    transport::SocketDevice clientSide(fds[1]);

    ShmSegment segment =
        ShmSegment::create(StreamRing::bytesRequired(64), "ps3-ring");
    StreamRing *ring =
        StreamRing::create(segment.data(), segment.size(), 64);
    ASSERT_NE(ring, nullptr);

    // Records published before the handover are not replayed: a
    // subscriber joins at the live tail like a socket client.
    for (int i = 0; i < 3; ++i)
        publishSlot(*ring, 0.1 * i);

    sendShmHandover(serverSide, segment);
    std::unique_ptr<ShmSubscriber> sub =
        ShmSubscriber::attach(clientSide, 1.0);
    ASSERT_NE(sub, nullptr);
    EXPECT_EQ(sub->position(), ring->tail());

    for (int i = 0; i < 10; ++i)
        publishSlot(*ring, 1.0 + i);

    // Kill the control socket entirely: the data plane is a pure
    // memory mapping and must keep working without it.
    serverSide.abort();

    host::DumpRecord record;
    std::uint64_t seq = 0;
    for (int i = 0; i < 10; ++i) {
        ASSERT_EQ(sub->poll(record, seq),
                  ShmSubscriber::Poll::Record);
        EXPECT_EQ(seq, 3u + static_cast<std::uint64_t>(i));
        EXPECT_EQ(record.time, 1.0 + i);
    }
    EXPECT_EQ(sub->poll(record, seq), ShmSubscriber::Poll::Empty);
    EXPECT_EQ(sub->lapped(), 0u);

    // Graceful end: producer-gone plus a drained ring.
    ring->markProducerGone();
    EXPECT_EQ(sub->poll(record, seq),
              ShmSubscriber::Poll::EndOfStream);
}

TEST(ShmStream, HeartbeatStallFlagsDeadProducer)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    transport::SocketDevice serverSide(fds[0]);
    transport::SocketDevice clientSide(fds[1]);

    ShmSegment segment =
        ShmSegment::create(StreamRing::bytesRequired(8), "ps3-beat");
    StreamRing *ring =
        StreamRing::create(segment.data(), segment.size(), 8);
    ASSERT_NE(ring, nullptr);

    sendShmHandover(serverSide, segment);
    std::unique_ptr<ShmSubscriber> sub =
        ShmSubscriber::attach(clientSide, 1.0);
    ASSERT_NE(sub, nullptr);

    ring->bumpHeartbeat();
    EXPECT_TRUE(sub->producerAlive(0.05));

    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    EXPECT_FALSE(sub->producerAlive(0.05));

    ring->bumpHeartbeat();
    EXPECT_TRUE(sub->producerAlive(0.05));
}

TEST(ShmStream, LapsAreAccountedExactly)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    transport::SocketDevice serverSide(fds[0]);
    transport::SocketDevice clientSide(fds[1]);

    constexpr std::size_t kCapacity = 64;
    constexpr std::uint64_t kPublished = 1000;
    ShmSegment segment = ShmSegment::create(
        StreamRing::bytesRequired(kCapacity), "ps3-lap");
    StreamRing *ring = StreamRing::create(segment.data(),
                                          segment.size(), kCapacity);
    ASSERT_NE(ring, nullptr);

    sendShmHandover(serverSide, segment);
    std::unique_ptr<ShmSubscriber> sub =
        ShmSubscriber::attach(clientSide, 1.0);
    ASSERT_NE(sub, nullptr);

    // A wedged subscriber: the producer laps it many times over.
    for (std::uint64_t i = 0; i < kPublished; ++i)
        publishSlot(*ring, 0.001 * static_cast<double>(i));

    host::DumpRecord record;
    std::uint64_t seq = 0;
    std::uint64_t delivered = 0;
    std::uint64_t first_seq = 0;
    while (sub->poll(record, seq) == ShmSubscriber::Poll::Record) {
        if (delivered == 0)
            first_seq = seq;
        ++delivered;
    }

    EXPECT_EQ(first_seq, ring->oldest());
    EXPECT_EQ(delivered, kCapacity);
    EXPECT_EQ(sub->lapped(), kPublished - kCapacity);
    EXPECT_EQ(delivered + sub->lapped(), kPublished);
}

TEST(ShmStream, BadSlotsAreDroppedAndCountedNeverDelivered)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    transport::SocketDevice serverSide(fds[0]);
    transport::SocketDevice clientSide(fds[1]);

    ShmSegment segment =
        ShmSegment::create(StreamRing::bytesRequired(64), "ps3-bad");
    StreamRing *ring =
        StreamRing::create(segment.data(), segment.size(), 64);
    ASSERT_NE(ring, nullptr);
    sendShmHandover(serverSide, segment);
    std::unique_ptr<ShmSubscriber> sub =
        ShmSubscriber::attach(clientSide, 1.0);
    ASSERT_NE(sub, nullptr);

    // Bad slots under a valid epoch: a length word out of range, a
    // record kind the codec does not know, a record shorter than
    // its mask promises, and trailing bytes the record does not use.
    auto publishBad = [&](std::uint64_t len, std::uint8_t kind,
                          std::uint8_t mask) {
        StreamSlot slot{};
        encodeRecordTo(slot.encoded, testRecord(0.0, 0x1));
        slot.encoded[0] = kind;
        slot.encoded[1] = mask;
        slot.encodedLen = len;
        ring->publish(slot);
    };
    publishSlot(*ring, 1.0);
    publishBad(0, 'S', 0x1);
    publishBad(kMaxEncodedRecordBytes + 1, 'S', 0x1);
    publishSlot(*ring, 2.0);
    publishBad(26, 'Q', 0x1);
    publishBad(26, 'S', 0xF);
    publishBad(27, 'S', 0x1);
    publishSlot(*ring, 3.0);
    constexpr std::uint64_t kBad = 5;

    host::DumpRecord record;
    std::uint64_t seq = 0;
    std::uint64_t delivered = 0;
    std::uint64_t gap = 0;
    std::uint64_t expect = sub->position();
    while (sub->poll(record, seq) == ShmSubscriber::Poll::Record) {
        EXPECT_EQ(record.time, 1.0 + static_cast<double>(delivered));
        gap += seq - expect;
        expect = seq + 1;
        ++delivered;
    }
    EXPECT_EQ(delivered, 3u);
    EXPECT_EQ(sub->dropped(), kBad);
    EXPECT_EQ(sub->lapped(), 0u);
    // The caller sees every dropped slot as a sequence gap.
    EXPECT_EQ(gap, kBad);
    EXPECT_EQ(delivered + sub->dropped() + sub->lapped(),
              ring->tail());
}

TEST(ShmStream, AttachRefusesAVersionOneRing)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    transport::SocketDevice serverSide(fds[0]);
    transport::SocketDevice clientSide(fds[1]);

    ShmSegment segment =
        ShmSegment::create(StreamRing::bytesRequired(8), "ps3-v1");
    ASSERT_NE(StreamRing::create(segment.data(), segment.size(), 8),
              nullptr);
    // Rewrite the header's layout version (the u32 after the magic)
    // to the old slot layout's.
    const std::uint32_t old_version = 1;
    std::memcpy(static_cast<std::uint8_t *>(segment.data()) + 4,
                &old_version, sizeof old_version);
    EXPECT_EQ(StreamRing::attach(segment.data(), segment.size()),
              nullptr);

    sendShmHandover(serverSide, segment);
    EXPECT_THROW(ShmSubscriber::attach(clientSide, 1.0), DeviceError);
}

// ----- end-to-end over shm:// --------------------------------------------

TEST(NetShm, ClientStreamsOverSharedMemory)
{
    const std::string path = socketPath();
    Ps3Server::Options sopt;
    sopt.queueCapacity = 4096;
    Ps3Server server(testConfig(), "5.1-shm", sopt);
    server.listen(Endpoint::parse("shm://" + path));

    NetPowerSensor client("shm://" + path);
    EXPECT_EQ(client.tier(), host::Tier::Raw);
    EXPECT_EQ(client.firmwareVersion(), "5.1-shm");

    constexpr std::uint64_t kRecords = 2000;
    for (std::uint64_t i = 0; i < kRecords; ++i)
        server.publish(
            testRecord(0.001 * static_cast<double>(i), 0x3));

    ASSERT_TRUE(waitFor(
        [&] { return client.recordsReceived() == kRecords; }));
    EXPECT_EQ(client.gapEvents(), 0u);
    EXPECT_EQ(client.gapRecords(), 0u);

    // The state machinery runs off the mapped stream.
    server.publish(testRecord(99.0, 0x3));
    EXPECT_TRUE(client.waitUntil(99.0));

    server.stop();
    ASSERT_TRUE(waitFor([&] { return client.deviceGone(); }));
    EXPECT_EQ(client.recordsReceived(), kRecords + 1);
    EXPECT_EQ(client.reconnects(), 0u);
}

TEST(NetShm, DaemonRestartSurfacesGapAndReconnects)
{
    const std::string path = socketPath();

    // A hand-rolled first daemon whose death is abrupt: handshake +
    // handover, stream a few records, then vanish without the
    // producer-gone flag (a real crash).
    ShmSegment segment =
        ShmSegment::create(StreamRing::bytesRequired(256), "ps3-gap");
    StreamRing *ring =
        StreamRing::create(segment.data(), segment.size(), 256);
    ASSERT_NE(ring, nullptr);

    auto listener = std::make_unique<transport::SocketListener>(
        Endpoint::parse("unix://" + path));
    std::unique_ptr<transport::SocketDevice> conn;
    std::thread acceptor([&] {
        conn = listener->accept(5.0);
        if (!conn)
            return;
        std::uint8_t hello[kClientHelloSize];
        if (!readAll(*conn, hello, sizeof hello, 2.0))
            return;
        HelloStatus reject = HelloStatus::Ok;
        const auto parsed =
            ClientHello::decode(hello, sizeof hello, reject);
        if (!parsed)
            return;
        ServerHello reply;
        reply.status = HelloStatus::Ok;
        reply.sampleRateHz = 1000.0;
        reply.firmwareVersion = "manual-1";
        reply.config = testConfig();
        const auto bytes = reply.encode();
        conn->write(bytes.data(), bytes.size());
        sendShmHandover(*conn, segment);
    });

    NetPowerSensor::Options copt;
    copt.autoReconnect = true;
    copt.maxReconnectAttempts = 100;
    copt.reconnectInitialBackoff = 0.02;
    copt.reconnectMaxBackoff = 0.1;
    // The manual daemon bumps no heartbeat; keep liveness out of the
    // picture so the reconnect is driven by the socket EOF alone.
    copt.idleTimeout = 30.0;
    NetPowerSensor client("shm://" + path, copt);
    acceptor.join();
    ASSERT_NE(conn, nullptr);

    constexpr std::uint64_t kFirstBatch = 50;
    for (std::uint64_t i = 0; i < kFirstBatch; ++i)
        publishSlot(*ring, 0.001 * static_cast<double>(i));
    ASSERT_TRUE(waitFor(
        [&] { return client.recordsReceived() == kFirstBatch; }));

    // Crash: control socket dies, the listener goes away, no
    // producer-gone flag is ever set.
    conn->abort();
    listener.reset();

    // The restarted daemon: a real server on the same path, whose
    // sequence numbers start over from zero.
    Ps3Server server(testConfig(), "5.2-shm");
    server.listen(Endpoint::parse("shm://" + path));

    ASSERT_TRUE(waitFor([&] { return client.reconnects() == 1; }));
    EXPECT_FALSE(client.deviceGone());

    constexpr std::uint64_t kSecondBatch = 20;
    for (std::uint64_t i = 0; i < kSecondBatch; ++i)
        server.publish(
            testRecord(10.0 + 0.001 * static_cast<double>(i), 0x1));
    ASSERT_TRUE(waitFor([&] {
        return client.recordsReceived() == kFirstBatch + kSecondBatch;
    }));

    // The restart shows up as a gap of unknown size, exactly like a
    // socket stream whose server came back.
    EXPECT_GE(client.gapEvents(), 1u);

    server.stop();
    ASSERT_TRUE(waitFor([&] { return client.deviceGone(); }));
}

} // namespace
} // namespace ps3::net
