/**
 * @file
 * FleetServer integration suite: the epoll event loop serving a
 * SensorRegistry to PS3N v2 multiplexed clients and v1.x
 * single-stream clients at the same time.
 *
 * Covers the v2 session lifecycle (list, subscribe, records,
 * credit flow control, unsubscribe, markers), the subscribe
 * rejection matrix (unknown sensor, stream-id collision, bad tier,
 * stream limit, control stream), hostile-command handling, the
 * v1.0/v1.1/v1.2 negotiation matrix against the same port, shm://
 * handover, graceful drain, and the idle guarantee (no event-loop
 * wakeups without work — the observable for the timerfd/doorbell
 * scheduling).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/errors.hpp"
#include "host/dump_writer.hpp"
#include "net/fleet_client.hpp"
#include "net/fleet_server.hpp"
#include "net/net_power_sensor.hpp"
#include "net/registry.hpp"
#include "net/shm_stream.hpp"
#include "net/wire.hpp"
#include "net/wire_v2.hpp"
#include "transport/socket_device.hpp"

namespace ps3 {
namespace {

using transport::Endpoint;
using transport::RingOverflow;
using Kind = net::FleetClient::Event::Kind;

std::string
socketPath()
{
    static std::atomic<int> counter{0};
    return "/tmp/ps3_fleet_test_" + std::to_string(::getpid()) + "_"
           + std::to_string(counter.fetch_add(1)) + ".sock";
}

firmware::DeviceConfig
testConfig()
{
    firmware::DeviceConfig config{};
    config[0].inUse = true;
    config[0].name = "12V-10A";
    config[0].vref = 1.65;
    config[0].slope = 0.11;
    return config;
}

/** Record with a per-sensor signature in current[0]. */
host::DumpRecord
sensorRecord(std::uint16_t sensor, double time)
{
    host::DumpRecord record;
    record.time = time;
    record.presentMask = 0x01;
    record.voltage[0] = 12.0;
    record.current[0] = 1.0 + sensor;
    return record;
}

/** A registry of `n` publish-driven sensors. */
std::unique_ptr<net::SensorRegistry>
makeRegistry(std::size_t n, std::size_t ring_capacity = 1024)
{
    auto registry = std::make_unique<net::SensorRegistry>();
    for (std::size_t i = 0; i < n; ++i)
        registry->addSimulated("fleet-" + std::to_string(i),
                               testConfig(), "fw-test", 20000.0,
                               ring_capacity);
    return registry;
}

/** Poll until an event of `kind` arrives; fail the test otherwise. */
net::FleetClient::Event
awaitEvent(net::FleetClient &client, Kind kind,
           double timeout_seconds = 5.0)
{
    const auto deadline =
        std::chrono::steady_clock::now()
        + std::chrono::duration<double>(timeout_seconds);
    net::FleetClient::Event event;
    while (std::chrono::steady_clock::now() < deadline) {
        if (!client.poll(event, 0.1))
            continue;
        if (event.kind == kind)
            return event;
    }
    ADD_FAILURE() << "no event of kind "
                  << static_cast<int>(kind) << " within "
                  << timeout_seconds << " s";
    return event;
}

/** Subscribe and require the Ok ack. */
void
subscribeOk(net::FleetClient &client, std::uint16_t stream_id,
            std::uint16_t sensor_id,
            host::Tier tier = host::Tier::Raw,
            RingOverflow overflow = RingOverflow::Block,
            std::uint32_t credit = net::kUnlimitedCredit)
{
    client.subscribe(stream_id, sensor_id, tier, overflow, credit);
    const auto ack = awaitEvent(client, Kind::SubscribeAck);
    ASSERT_EQ(ack.ack.status, net::SubscribeStatus::Ok);
    ASSERT_EQ(ack.ack.streamId, stream_id);
    ASSERT_EQ(ack.ack.sensorId, sensor_id);
    ASSERT_EQ(ack.ack.sampleRateHz, 20000.0);
}

/** Drain Records events on one stream until `count` arrive. */
std::vector<host::DumpRecord>
awaitRecords(net::FleetClient &client, std::uint16_t stream_id,
             std::size_t count, double timeout_seconds = 5.0)
{
    const auto deadline =
        std::chrono::steady_clock::now()
        + std::chrono::duration<double>(timeout_seconds);
    std::vector<host::DumpRecord> records;
    net::FleetClient::Event event;
    while (records.size() < count
           && std::chrono::steady_clock::now() < deadline) {
        if (!client.poll(event, 0.1))
            continue;
        if (event.kind == Kind::Records
            && event.streamId == stream_id)
            records.insert(records.end(), event.records.begin(),
                           event.records.end());
    }
    EXPECT_EQ(records.size(), count);
    return records;
}

// ----- v2 session lifecycle ----------------------------------------------

TEST(FleetV2, ListSubscribeAndStreamOneSensor)
{
    auto registry = makeRegistry(3);
    net::FleetServer server(*registry);
    const auto endpoint =
        server.listen(Endpoint::parse("unix://" + socketPath()));

    auto client = net::FleetClient::connect(endpoint, 5.0);
    EXPECT_EQ(client->sensorCount(), 3);

    client->requestSensorList();
    const auto listing = awaitEvent(*client, Kind::Sensors);
    ASSERT_EQ(listing.sensors.size(), 3u);
    EXPECT_EQ(listing.sensors[1].id, 1);
    EXPECT_EQ(listing.sensors[1].name, "fleet-1");
    EXPECT_EQ(listing.sensors[1].sampleRateHz, 20000.0);

    subscribeOk(*client, 7, 1);
    for (int i = 0; i < 50; ++i)
        registry->publish(1, sensorRecord(1, 50e-6 * i));
    // Unsubscribed sensors must not leak onto the connection.
    registry->publish(0, sensorRecord(0, 0.0));
    registry->publish(2, sensorRecord(2, 0.0));

    const auto records = awaitRecords(*client, 7, 50);
    ASSERT_EQ(records.size(), 50u);
    EXPECT_EQ(records.front().current[0], 2.0); // sensor 1's mark
    EXPECT_EQ(records.back().time, 50e-6 * 49);
    EXPECT_EQ(client->gapRecords(), 0u);

    registry->stopAll();
    server.stop();
}

TEST(FleetV2, MultiplexedStreamsKeepTheirIdentity)
{
    auto registry = makeRegistry(3);
    net::FleetServer server(*registry);
    const auto endpoint =
        server.listen(Endpoint::parse("unix://" + socketPath()));

    auto client = net::FleetClient::connect(endpoint, 5.0);
    subscribeOk(*client, 1, 0);
    subscribeOk(*client, 2, 1);
    subscribeOk(*client, 3, 2);

    // Distinct record counts per sensor expose any crosstalk.
    for (int i = 0; i < 10; ++i)
        registry->publish(0, sensorRecord(0, 50e-6 * i));
    for (int i = 0; i < 20; ++i)
        registry->publish(1, sensorRecord(1, 50e-6 * i));
    for (int i = 0; i < 30; ++i)
        registry->publish(2, sensorRecord(2, 50e-6 * i));

    std::size_t got[3] = {0, 0, 0};
    const auto deadline = std::chrono::steady_clock::now()
                          + std::chrono::seconds(5);
    net::FleetClient::Event event;
    while ((got[0] < 10 || got[1] < 20 || got[2] < 30)
           && std::chrono::steady_clock::now() < deadline) {
        if (!client->poll(event, 0.1)
            || event.kind != Kind::Records)
            continue;
        ASSERT_GE(event.streamId, 1);
        ASSERT_LE(event.streamId, 3);
        for (const auto &record : event.records)
            EXPECT_EQ(record.current[0],
                      1.0 + (event.streamId - 1));
        got[event.streamId - 1] += event.records.size();
    }
    EXPECT_EQ(got[0], 10u);
    EXPECT_EQ(got[1], 20u);
    EXPECT_EQ(got[2], 30u);
    EXPECT_EQ(client->gapRecords(), 0u);

    registry->stopAll();
    server.stop();
}

TEST(FleetV2, CreditStallsAndResumesLosslessly)
{
    auto registry = makeRegistry(1);
    net::FleetServer server(*registry);
    const auto endpoint =
        server.listen(Endpoint::parse("unix://" + socketPath()));

    auto client = net::FleetClient::connect(endpoint, 5.0);
    subscribeOk(*client, 1, 0, host::Tier::Raw, RingOverflow::Block,
                5);

    for (int i = 0; i < 12; ++i)
        registry->publish(0, sensorRecord(0, 50e-6 * i));

    // Exactly the credited 5 records arrive, then the stream stalls.
    auto records = awaitRecords(*client, 1, 5);
    net::FleetClient::Event event;
    while (client->poll(event, 0.3))
        ASSERT_NE(event.kind, Kind::Records)
            << "server sent past the credit";

    client->addCredit(1, 7);
    auto more = awaitRecords(*client, 1, 7);
    records.insert(records.end(), more.begin(), more.end());
    ASSERT_EQ(records.size(), 12u);
    for (int i = 0; i < 12; ++i)
        EXPECT_EQ(records[i].time, 50e-6 * i); // in order, no loss
    EXPECT_EQ(client->gapRecords(), 0u);

    registry->stopAll();
    server.stop();
}

TEST(FleetV2, CreditAfterBlockLapEndsOnlyThatStream)
{
    auto registry = makeRegistry(1, 16);
    net::FleetServer server(*registry);
    const auto endpoint =
        server.listen(Endpoint::parse("unix://" + socketPath()));

    auto client = net::FleetClient::connect(endpoint, 5.0);
    subscribeOk(*client, 1, 0, host::Tier::Raw, RingOverflow::Block,
                2);

    // Exhaust the credit, then lap the stalled cursor: a Block
    // stream that lost records must end, not lie by omission.
    for (int i = 0; i < 2; ++i)
        registry->publish(0, sensorRecord(0, 50e-6 * i));
    awaitRecords(*client, 1, 2);
    for (int i = 0; i < 40; ++i)
        registry->publish(0, sensorRecord(0, 50e-6 * (2 + i)));

    // The grant makes the server's pump detect the lap and remove
    // the stream mid-credit-handling — the connection (and the
    // freed stream's memory) must survive that.
    client->addCredit(1, 10);
    const auto eos = awaitEvent(*client, Kind::StreamEnd);
    EXPECT_EQ(eos.streamId, 1);

    // The control plane and a fresh stream still work.
    client->requestSensorList();
    const auto listing = awaitEvent(*client, Kind::Sensors);
    EXPECT_EQ(listing.sensors.size(), 1u);
    subscribeOk(*client, 2, 0);
    registry->publish(0, sensorRecord(0, 0.0));
    awaitRecords(*client, 2, 1);

    registry->stopAll();
    server.stop();
}

TEST(FleetV2, ControlFloodWithoutReadingGetsDropped)
{
    auto registry = makeRegistry(1);
    net::FleetServer::Options options;
    options.outBufferHighWater = 64u << 10;
    net::FleetServer server(*registry, options);
    const auto endpoint =
        server.listen(Endpoint::parse("unix://" + socketPath()));

    auto bystander = net::FleetClient::connect(endpoint, 5.0);
    subscribeOk(*bystander, 1, 0);

    // Control replies bypass stream credit, so a client that floods
    // list-sensors while reading nothing must be dropped once its
    // out buffer passes the hard cap — not grow it without bound.
    {
        auto raw = transport::SocketDevice::connect(endpoint, 5.0);
        const auto hello = net::encodeClientHelloV2();
        raw->write(hello.data(), hello.size());
        std::uint8_t prefix[net::kServerHelloPrefixSize];
        std::size_t got = 0;
        while (got < sizeof prefix)
            got += raw->read(prefix + got, sizeof prefix - got,
                             5.0);
        net::HelloStatus status = net::HelloStatus::Ok;
        const auto payload = net::decodeServerHelloV2Prefix(
            prefix, sizeof prefix, status);
        std::vector<std::uint8_t> body(payload);
        got = 0;
        while (got < payload)
            got += raw->read(body.data() + got, payload - got, 5.0);

        const std::vector<std::uint8_t> burst(
            4096, net::kOpListSensors);
        try {
            // ~4M commands; the server must cut us off long before.
            for (int i = 0; i < 1000 && !raw->closed(); ++i)
                raw->write(burst.data(), burst.size());
        } catch (const DeviceError &) {
            // Server already reset the connection mid-write.
        }
        std::uint8_t sink[4096];
        const auto deadline = std::chrono::steady_clock::now()
                              + std::chrono::seconds(5);
        while (!raw->closed()
               && std::chrono::steady_clock::now() < deadline)
            raw->read(sink, sizeof sink, 0.1);
        EXPECT_TRUE(raw->closed());
    }
    EXPECT_GE(server.subscribersDropped(), 1u);

    // The bystander's stream is unharmed.
    registry->publish(0, sensorRecord(0, 0.0));
    awaitRecords(*bystander, 1, 1);

    registry->stopAll();
    server.stop();
}

TEST(FleetV2, SubscribeRejectionMatrix)
{
    auto registry = makeRegistry(2);
    net::FleetServer::Options options;
    options.maxStreamsPerConnection = 2;
    net::FleetServer server(*registry, options);
    const auto endpoint =
        server.listen(Endpoint::parse("unix://" + socketPath()));

    auto client = net::FleetClient::connect(endpoint, 5.0);

    // Stream 0 is the control stream.
    client->subscribe(0, 0);
    auto ack = awaitEvent(*client, Kind::SubscribeAck);
    EXPECT_EQ(ack.ack.status, net::SubscribeStatus::BadStreamId);

    // Unknown sensor.
    client->subscribe(1, 99);
    ack = awaitEvent(*client, Kind::SubscribeAck);
    EXPECT_EQ(ack.ack.status, net::SubscribeStatus::UnknownSensor);

    // Tier byte above kMaxTierValue.
    client->subscribe(1, 0, static_cast<host::Tier>(9));
    ack = awaitEvent(*client, Kind::SubscribeAck);
    EXPECT_EQ(ack.ack.status, net::SubscribeStatus::BadTier);
    EXPECT_EQ(ack.ack.sampleRateHz, 0.0); // rejects carry no rate

    // Stream-id collision with a live stream.
    subscribeOk(*client, 1, 0);
    client->subscribe(1, 1);
    ack = awaitEvent(*client, Kind::SubscribeAck);
    EXPECT_EQ(ack.ack.status, net::SubscribeStatus::StreamIdInUse);

    // Per-connection stream limit.
    subscribeOk(*client, 2, 1);
    client->subscribe(3, 0);
    ack = awaitEvent(*client, Kind::SubscribeAck);
    EXPECT_EQ(ack.ack.status, net::SubscribeStatus::TooManyStreams);

    // None of that hurt the live streams.
    registry->publish(0, sensorRecord(0, 0.0));
    awaitRecords(*client, 1, 1);

    registry->stopAll();
    server.stop();
}

TEST(FleetV2, UnsubscribeEndsTheStreamWithEos)
{
    auto registry = makeRegistry(2);
    net::FleetServer server(*registry);
    const auto endpoint =
        server.listen(Endpoint::parse("unix://" + socketPath()));

    auto client = net::FleetClient::connect(endpoint, 5.0);
    subscribeOk(*client, 1, 0);
    subscribeOk(*client, 2, 1);

    registry->publish(0, sensorRecord(0, 0.0));
    awaitRecords(*client, 1, 1);

    client->unsubscribe(1);
    const auto eos = awaitEvent(*client, Kind::StreamEnd);
    EXPECT_EQ(eos.streamId, 1);

    // The closed stream is gone; the sibling stream still works,
    // and the freed id can be subscribed again.
    registry->publish(1, sensorRecord(1, 0.0));
    awaitRecords(*client, 2, 1);
    subscribeOk(*client, 1, 1);

    registry->stopAll();
    server.stop();
}

TEST(FleetV2, MarkersRouteToTheAddressedSensor)
{
    auto registry = makeRegistry(3);
    net::FleetServer server(*registry);
    const auto endpoint =
        server.listen(Endpoint::parse("unix://" + socketPath()));

    auto client = net::FleetClient::connect(endpoint, 5.0);
    client->mark(1, 'Q');
    const auto deadline = std::chrono::steady_clock::now()
                          + std::chrono::seconds(5);
    while (server.markerRequests() < 1
           && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(server.markerRequests(), 1u);
    EXPECT_EQ(registry->entry(1).markerRequests.load(), 1u);
    EXPECT_EQ(registry->entry(0).markerRequests.load(), 0u);

    // A marker for a nonexistent sensor is dropped, not fatal.
    client->mark(99, 'X');
    client->mark(2, 'R');
    while (server.markerRequests() < 2
           && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(registry->entry(2).markerRequests.load(), 1u);

    registry->stopAll();
    server.stop();
}

TEST(FleetV2, MarkedRecordsReachOnlyTheirSensorsSubscribers)
{
    auto registry = makeRegistry(2);
    net::FleetServer server(*registry);
    const auto endpoint =
        server.listen(Endpoint::parse("unix://" + socketPath()));

    // Two independent connections: one watches the marked sensor,
    // the other a sibling sensor. A marker must ride downstream
    // folded into its sample record ('M' prefix, see net/wire.hpp)
    // on the marked sensor's streams only.
    auto watcher = net::FleetClient::connect(endpoint, 5.0);
    auto bystander = net::FleetClient::connect(endpoint, 5.0);
    subscribeOk(*watcher, 1, 1);
    subscribeOk(*bystander, 1, 0);

    auto marked = sensorRecord(1, 0.0);
    marked.marker = true;
    marked.markerChar = 'R'; // region begin, energy attribution
    registry->publish(1, marked);
    registry->publish(1, sensorRecord(1, 50e-6));
    registry->publish(0, sensorRecord(0, 0.0));
    registry->publish(0, sensorRecord(0, 50e-6));

    const auto watched = awaitRecords(*watcher, 1, 2);
    ASSERT_EQ(watched.size(), 2u);
    EXPECT_TRUE(watched[0].marker);
    EXPECT_EQ(watched[0].markerChar, 'R');
    EXPECT_EQ(watched[0].time, 0.0);
    EXPECT_FALSE(watched[1].marker);

    const auto other = awaitRecords(*bystander, 1, 2);
    ASSERT_EQ(other.size(), 2u);
    for (const auto &record : other) {
        EXPECT_FALSE(record.marker);
        EXPECT_EQ(record.current[0], 1.0); // sensor 0's signature
    }

    registry->stopAll();
    server.stop();
}

TEST(FleetV2, HeartbeatsFlowOnIdleStreams)
{
    auto registry = makeRegistry(1);
    net::FleetServer::Options options;
    options.heartbeatInterval = 0.1;
    options.tickInterval = 0.05;
    net::FleetServer server(*registry, options);
    const auto endpoint =
        server.listen(Endpoint::parse("unix://" + socketPath()));

    auto client = net::FleetClient::connect(endpoint, 5.0);
    subscribeOk(*client, 1, 0);
    registry->publish(0, sensorRecord(0, 0.0));
    awaitRecords(*client, 1, 1);

    const auto beat = awaitEvent(*client, Kind::Heartbeat, 3.0);
    EXPECT_EQ(beat.streamId, 1);
    EXPECT_EQ(beat.firstSeq, 1u); // pins the stream position
    EXPECT_GE(server.heartbeatsSent(), 1u);
    EXPECT_EQ(client->gapRecords(), 0u);

    registry->stopAll();
    server.stop();
}

TEST(FleetV2, HostileCommandCostsOnlyThatConnection)
{
    auto registry = makeRegistry(1);
    net::FleetServer server(*registry);
    const auto endpoint =
        server.listen(Endpoint::parse("unix://" + socketPath()));

    auto bystander = net::FleetClient::connect(endpoint, 5.0);
    subscribeOk(*bystander, 1, 0);

    // An unknown op byte is unrecoverable (commands are fixed-size,
    // so framing is lost): the server must kick this connection.
    const std::uint8_t junk[] = {0x7E};
    {
        auto raw = transport::SocketDevice::connect(endpoint, 5.0);
        const auto hello = net::encodeClientHelloV2();
        raw->write(hello.data(), hello.size());
        std::uint8_t prefix[net::kServerHelloPrefixSize];
        std::size_t got = 0;
        while (got < sizeof prefix)
            got += raw->read(prefix + got, sizeof prefix - got,
                             5.0);
        net::HelloStatus status = net::HelloStatus::Ok;
        const auto payload = net::decodeServerHelloV2Prefix(
            prefix, sizeof prefix, status);
        std::vector<std::uint8_t> body(payload);
        got = 0;
        while (got < payload)
            got += raw->read(body.data() + got, payload - got, 5.0);
        raw->write(junk, sizeof junk);
        // The server closes on us: reads drain to EOF.
        std::uint8_t sink[64];
        const auto deadline = std::chrono::steady_clock::now()
                              + std::chrono::seconds(5);
        while (!raw->closed()
               && std::chrono::steady_clock::now() < deadline)
            raw->read(sink, sizeof sink, 0.1);
        EXPECT_TRUE(raw->closed());
    }
    EXPECT_GE(server.protocolErrors(), 1u);

    // The bystander's stream is unharmed.
    registry->publish(0, sensorRecord(0, 0.0));
    awaitRecords(*bystander, 1, 1);

    registry->stopAll();
    server.stop();
}

TEST(FleetV2, ServerFullRefusesTheHello)
{
    auto registry = makeRegistry(1);
    net::FleetServer::Options options;
    options.maxSubscribers = 1;
    net::FleetServer server(*registry, options);
    const auto endpoint =
        server.listen(Endpoint::parse("unix://" + socketPath()));

    auto first = net::FleetClient::connect(endpoint, 5.0);
    const auto deadline = std::chrono::steady_clock::now()
                          + std::chrono::seconds(5);
    while (server.subscriberCount() < 1
           && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_THROW(net::FleetClient::connect(endpoint, 5.0),
                 DeviceError);

    registry->stopAll();
    server.stop();
}

TEST(FleetV2, DrainDeliversTailThenEosOnEveryStream)
{
    auto registry = makeRegistry(2);
    net::FleetServer server(*registry);
    const auto endpoint =
        server.listen(Endpoint::parse("unix://" + socketPath()));

    auto client = net::FleetClient::connect(endpoint, 5.0);
    subscribeOk(*client, 1, 0);
    subscribeOk(*client, 2, 1);
    for (int i = 0; i < 100; ++i) {
        registry->publish(0, sensorRecord(0, 50e-6 * i));
        registry->publish(1, sensorRecord(1, 50e-6 * i));
    }

    registry->stopAll();
    std::thread stopper([&] { server.stop(); });

    std::size_t records[2] = {0, 0};
    bool eos[2] = {false, false};
    bool closed = false;
    const auto deadline = std::chrono::steady_clock::now()
                          + std::chrono::seconds(10);
    net::FleetClient::Event event;
    while (!closed
           && std::chrono::steady_clock::now() < deadline) {
        if (!client->poll(event, 0.1))
            continue;
        switch (event.kind) {
        case Kind::Records:
            ASSERT_GE(event.streamId, 1);
            ASSERT_LE(event.streamId, 2);
            records[event.streamId - 1] += event.records.size();
            break;
        case Kind::StreamEnd:
            if (event.streamId >= 1 && event.streamId <= 2)
                eos[event.streamId - 1] = true;
            break;
        case Kind::ConnectionClosed:
            closed = true;
            break;
        default:
            break;
        }
    }
    stopper.join();

    // Every published record arrived before its stream's EOS.
    EXPECT_EQ(records[0], 100u);
    EXPECT_EQ(records[1], 100u);
    EXPECT_TRUE(eos[0]);
    EXPECT_TRUE(eos[1]);
    EXPECT_TRUE(closed);
    EXPECT_EQ(client->gapRecords(), 0u);
    EXPECT_EQ(server.recordsDropped(), 0u);
}

// ----- v1 compatibility on the same port ---------------------------------

TEST(FleetV1Compat, NetPowerSensorStreamsSensorZero)
{
    auto registry = makeRegistry(2);
    net::FleetServer server(*registry);
    const auto endpoint =
        server.listen(Endpoint::parse("unix://" + socketPath()));

    net::NetPowerSensor client(endpoint);
    EXPECT_EQ(client.firmwareVersion(), "fw-test");

    for (int i = 0; i < 200; ++i)
        registry->publish(0, sensorRecord(0, 50e-6 * i));
    // Sensor 1 must not bleed into a v1 session.
    registry->publish(1, sensorRecord(1, 0.0));

    const auto deadline = std::chrono::steady_clock::now()
                          + std::chrono::seconds(5);
    while (client.recordsReceived() < 200
           && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(client.recordsReceived(), 200u);

    // Upstream markers land on entry 0.
    client.mark('M');
    while (server.markerRequests() < 1
           && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(registry->entry(0).markerRequests.load(), 1u);

    registry->stopAll();
    server.stop();
    while (!client.deviceGone())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(client.recordsReceived(), 200u);
}

TEST(FleetV1Compat, NegotiationMatrixAnswersEveryMinor)
{
    auto registry = makeRegistry(1);
    net::FleetServer server(*registry);
    const auto endpoint =
        server.listen(Endpoint::parse("unix://" + socketPath()));

    for (std::uint8_t minor : {0, 1, 2}) {
        net::ClientHello hello;
        hello.minor = minor;
        auto socket = transport::SocketDevice::connect(endpoint, 5.0);
        const auto bytes = hello.encode();
        socket->write(bytes.data(), bytes.size());

        std::uint8_t prefix[net::kServerHelloPrefixSize];
        std::size_t got = 0;
        while (got < sizeof prefix)
            got += socket->read(prefix + got, sizeof prefix - got,
                                5.0);
        net::ServerHello reply;
        const std::size_t payload_len = net::ServerHello::decodePrefix(
            prefix, sizeof prefix, reply);
        std::vector<std::uint8_t> payload(payload_len);
        got = 0;
        while (got < payload_len)
            got += socket->read(payload.data() + got,
                                payload_len - got, 5.0);
        reply.decodePayload(payload.data(), payload.size());

        EXPECT_EQ(reply.status, net::HelloStatus::Ok);
        // The reply advertises the server's highest minor; the
        // session then speaks min(client, server) — v1.0 clients
        // get sequence-free framing, v1.1+ sequenced batches (the
        // framing half is checked by V10SessionStreams... below).
        EXPECT_EQ(reply.minor, net::kProtocolMinor);
        EXPECT_EQ(reply.firmwareVersion, "fw-test");
        EXPECT_EQ(reply.sampleRateHz, 20000.0);
    }

    registry->stopAll();
    server.stop();
}

TEST(FleetV1Compat, V10SessionStreamsSequenceFreeBatches)
{
    auto registry = makeRegistry(1);
    net::FleetServer server(*registry);
    const auto endpoint =
        server.listen(Endpoint::parse("unix://" + socketPath()));

    net::ClientHello hello;
    hello.minor = 0;
    auto socket = transport::SocketDevice::connect(endpoint, 5.0);
    const auto bytes = hello.encode();
    socket->write(bytes.data(), bytes.size());
    std::uint8_t prefix[net::kServerHelloPrefixSize];
    std::size_t got = 0;
    while (got < sizeof prefix)
        got += socket->read(prefix + got, sizeof prefix - got, 5.0);
    net::ServerHello reply;
    const std::size_t payload_len =
        net::ServerHello::decodePrefix(prefix, sizeof prefix, reply);
    std::vector<std::uint8_t> payload(payload_len);
    got = 0;
    while (got < payload_len)
        got += socket->read(payload.data() + got, payload_len - got,
                            5.0);
    reply.decodePayload(payload.data(), payload.size());
    ASSERT_EQ(reply.status, net::HelloStatus::Ok);

    for (int i = 0; i < 5; ++i)
        registry->publish(0, sensorRecord(0, 50e-6 * i));

    // v1.0 framing: u32 length, then records — no sequence header,
    // no heartbeats, ever.
    std::uint8_t head[4];
    got = 0;
    while (got < sizeof head)
        got += socket->read(head + got, sizeof head - got, 5.0);
    const std::uint32_t len = head[0] | (head[1] << 8)
                              | (head[2] << 16)
                              | (std::uint32_t(head[3]) << 24);
    ASSERT_GT(len, 0u);
    ASSERT_LE(len, net::kMaxBatchBytes);
    std::vector<std::uint8_t> batch(len);
    got = 0;
    while (got < len)
        got += socket->read(batch.data() + got, len - got, 5.0);
    // The payload starts directly with a record tag, not a seq.
    EXPECT_EQ(batch[0], 'S');

    registry->stopAll();
    server.stop();
}

TEST(FleetV1Compat, TieredSubscriberGetsBuckets)
{
    auto registry = makeRegistry(1);
    net::FleetServer server(*registry);
    const auto endpoint =
        server.listen(Endpoint::parse("unix://" + socketPath()));

    net::NetPowerSensor::Options options;
    options.tier = host::Tier::Hz1000;
    net::NetPowerSensor client(endpoint, options);

    // 3 full 1 kHz buckets at 20 kHz = 60 records, plus change.
    for (int i = 0; i < 70; ++i)
        registry->publish(0, sensorRecord(0, 50e-6 * i));

    const auto deadline = std::chrono::steady_clock::now()
                          + std::chrono::seconds(5);
    while (client.bucketsReceived() < 3
           && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_GE(client.bucketsReceived(), 3u);

    registry->stopAll();
    server.stop();
}

TEST(FleetV1Compat, ShmHandoverStreamsThroughTheMappedRing)
{
    auto registry = makeRegistry(1);
    net::FleetServer server(*registry);
    const std::string path = socketPath();
    const auto endpoint =
        server.listen(Endpoint::parse("shm://" + path));

    net::NetPowerSensor client(endpoint);
    for (int i = 0; i < 500; ++i)
        registry->publish(0, sensorRecord(0, 50e-6 * i));
    const auto deadline = std::chrono::steady_clock::now()
                          + std::chrono::seconds(5);
    while (client.recordsReceived() < 500
           && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(client.recordsReceived(), 500u);

    // A v2 hello has no mapped-ring equivalent: the shm control
    // socket refuses it rather than leaving a half-open session.
    EXPECT_THROW(net::FleetClient::connect(endpoint, 5.0),
                 DeviceError);

    registry->stopAll();
    server.stop();
    while (!client.deviceGone())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

// ----- scheduling: the idle guarantee ------------------------------------

TEST(FleetIdle, UnwatchedSensorsCostNoWakeups)
{
    auto registry = makeRegistry(4);
    net::FleetServer server(*registry);
    server.listen(
        Endpoint::parse("unix://" + socketPath()));

    // Let the loop finish setting up, then baseline.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const std::uint64_t baseline = server.loopWakeups();

    // A publish storm into sensors nobody watches: the doorbells
    // are unarmed, the timer is disarmed (no connections) — the
    // loop must sleep through all of it.
    for (int i = 0; i < 1000; ++i)
        registry->publish(i % 4, sensorRecord(0, 50e-6 * i));
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    EXPECT_EQ(server.loopWakeups(), baseline);

    registry->stopAll();
    server.stop();
}

TEST(FleetIdle, TimerDisarmsAfterTheLastConnection)
{
    auto registry = makeRegistry(1);
    net::FleetServer server(*registry);
    const auto endpoint =
        server.listen(Endpoint::parse("unix://" + socketPath()));

    {
        auto client = net::FleetClient::connect(endpoint, 5.0);
        subscribeOk(*client, 1, 0);
        registry->publish(0, sensorRecord(0, 0.0));
        awaitRecords(*client, 1, 1);
    } // client disconnects here

    const auto deadline = std::chrono::steady_clock::now()
                          + std::chrono::seconds(5);
    while (server.subscriberCount() > 0
           && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(server.subscriberCount(), 0u);

    // Allow the close to settle, then the loop must go dark: no
    // ticks (timer disarmed), no doorbells (no subscribers).
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    const std::uint64_t baseline = server.loopWakeups();
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    EXPECT_LE(server.loopWakeups() - baseline, 1u);

    registry->stopAll();
    server.stop();
}

// ----- broadcast-ring slots -----------------------------------------------

/** Every mask 0..15, with and without a marker, with inf/NaN values. */
std::vector<host::DumpRecord>
slotEdgeRecords()
{
    const double special[] = {
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::bit_cast<double>(std::uint64_t{0x7FF8000000000123}),
        -0.0,
        12.5,
    };
    std::vector<host::DumpRecord> records;
    for (unsigned marked = 0; marked < 2; ++marked) {
        for (unsigned mask = 0; mask < 16; ++mask) {
            host::DumpRecord record;
            const unsigned k = marked * 16 + mask;
            record.time = k == 7 ? special[2] : 50e-6 * k;
            record.presentMask = static_cast<std::uint8_t>(mask);
            for (unsigned pair = 0; pair < host::kMaxPairs; ++pair) {
                record.voltage[pair] = special[(k + pair) % 5];
                record.current[pair] = special[(k + pair + 2) % 5];
            }
            record.marker = marked != 0;
            record.markerChar =
                marked != 0 ? static_cast<char>('A' + mask) : '\0';
            records.push_back(record);
        }
    }
    return records;
}

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/** The wire carries time, mask, marker and present pairs only. */
void
expectSameWireRecord(const host::DumpRecord &got,
                     const host::DumpRecord &want)
{
    EXPECT_EQ(bits(got.time), bits(want.time));
    EXPECT_EQ(got.presentMask, want.presentMask);
    EXPECT_EQ(got.marker, want.marker);
    EXPECT_EQ(got.markerChar, want.markerChar);
    for (unsigned pair = 0; pair < host::kMaxPairs; ++pair) {
        const bool present = (want.presentMask >> pair) & 1u;
        EXPECT_EQ(bits(got.voltage[pair]),
                  present ? bits(want.voltage[pair]) : 0u);
        EXPECT_EQ(bits(got.current[pair]),
                  present ? bits(want.current[pair]) : 0u);
    }
    EXPECT_FALSE(got.gap);
}

/** Blocking exact read with a generous per-call timeout. */
void
readExactly(transport::SocketDevice &socket, std::uint8_t *out,
            std::size_t n)
{
    std::size_t got = 0;
    while (got < n) {
        const std::size_t r = socket.read(out + got, n - got, 5.0);
        ASSERT_FALSE(r == 0 && socket.closed());
        got += r;
    }
}

TEST(FleetSlots, PublishedSlotsDecodeBitExact)
{
    auto registry = makeRegistry(1, 64);
    const auto records = slotEdgeRecords();
    for (const auto &record : records)
        registry->publish(0, record);

    const net::StreamRing &ring = *registry->entry(0).ring;
    ASSERT_EQ(ring.tail(), records.size());
    for (std::uint64_t seq = 0; seq < records.size(); ++seq) {
        SCOPED_TRACE("seq " + std::to_string(seq));
        host::DumpRecord got;
        ASSERT_EQ(net::readSlot(ring, seq, got), net::SlotRead::Ok);
        expectSameWireRecord(got, records[seq]);

        // The slot holds encodeRecordTo's bytes and nothing else.
        std::uint8_t want[net::kMaxEncodedRecordBytes];
        const std::size_t len =
            net::encodeRecordTo(want, records[seq]);
        net::StreamSlot slot{};
        ASSERT_EQ(ring.readAt(seq, slot), transport::BroadcastRead::Ok);
        ASSERT_EQ(slot.encodedLen, len);
        EXPECT_EQ(std::memcmp(slot.encoded, want, len), 0);
    }
}

TEST(FleetSlots, RawEgressEmitsTheEncodedBytes)
{
    auto registry = makeRegistry(1);
    net::FleetServer server(*registry);
    const auto endpoint =
        server.listen(Endpoint::parse("unix://" + socketPath()));

    // A v1.0 session: batches are a u32 length and bare records, so
    // the stream bytes are exactly the records' wire bytes.
    net::ClientHello hello;
    hello.minor = 0;
    auto socket = transport::SocketDevice::connect(endpoint, 5.0);
    const auto hello_bytes = hello.encode();
    socket->write(hello_bytes.data(), hello_bytes.size());
    std::uint8_t prefix[net::kServerHelloPrefixSize];
    readExactly(*socket, prefix, sizeof prefix);
    net::ServerHello reply;
    std::vector<std::uint8_t> payload(
        net::ServerHello::decodePrefix(prefix, sizeof prefix, reply));
    readExactly(*socket, payload.data(), payload.size());
    ASSERT_EQ(reply.status, net::HelloStatus::Ok);

    const auto records = slotEdgeRecords();
    std::vector<std::uint8_t> want;
    for (const auto &record : records) {
        registry->publish(0, record);
        net::encodeRecord(want, record);
    }

    std::vector<std::uint8_t> got;
    while (got.size() < want.size()) {
        std::uint8_t head[4];
        readExactly(*socket, head, sizeof head);
        const std::uint32_t len = head[0] | (head[1] << 8)
                                  | (head[2] << 16)
                                  | (std::uint32_t(head[3]) << 24);
        ASSERT_GT(len, 0u);
        ASSERT_LE(got.size() + len, want.size());
        const std::size_t at = got.size();
        got.resize(at + len);
        readExactly(*socket, got.data() + at, len);
    }
    EXPECT_EQ(got, want);

    registry->stopAll();
    server.stop();
}

TEST(FleetSlots, TierPumpDropsAndCountsBadSlots)
{
    auto registry = makeRegistry(1);
    net::FleetServer server(*registry);
    const auto endpoint =
        server.listen(Endpoint::parse("unix://" + socketPath()));
    auto client = net::FleetClient::connect(endpoint, 5.0);
    subscribeOk(*client, 1, 0, host::Tier::Hz1000);

    int tick = 0;
    auto publishGood = [&](int n) {
        for (int i = 0; i < n; ++i, ++tick)
            registry->publish(0, sensorRecord(0, 50e-6 * tick));
    };
    // Bad slots under a valid epoch: a length word out of range, a
    // record kind the codec does not know, and a record shorter
    // than its mask promises.
    net::StreamRing &ring = *registry->entry(0).ring;
    auto publishBad = [&](std::uint64_t len, std::uint8_t kind,
                          std::uint8_t mask) {
        net::StreamSlot slot{};
        slot.encodedLen =
            net::encodeRecordTo(slot.encoded, sensorRecord(0, 0.0));
        slot.encoded[0] = kind;
        slot.encoded[1] = mask;
        slot.encodedLen = len;
        ring.publish(slot);
        ++tick;
    };
    publishGood(50);
    publishBad(0, 'S', 0x01);
    publishBad(net::kMaxEncodedRecordBytes + 1, 'S', 0x01);
    publishGood(30);
    publishBad(26, 'Q', 0x01);
    publishBad(26, 'S', 0x0F);
    publishGood(45);
    constexpr std::uint64_t kBad = 4;

    registry->stopAll();
    std::thread stopper([&] { server.stop(); });
    std::uint64_t delivered = 0;
    bool closed = false;
    const auto deadline = std::chrono::steady_clock::now()
                          + std::chrono::seconds(10);
    net::FleetClient::Event event;
    while (!closed && std::chrono::steady_clock::now() < deadline) {
        if (!client->poll(event, 0.1))
            continue;
        if (event.kind == Kind::Buckets) {
            for (const auto &[tier, bucket] : event.buckets) {
                EXPECT_EQ(tier, host::Tier::Hz1000);
                // Only good records fold: 12 V at 1 A.
                EXPECT_DOUBLE_EQ(bucket.minPower, 12.0);
                EXPECT_DOUBLE_EQ(bucket.maxPower, 12.0);
                delivered += bucket.samples;
            }
        }
        EXPECT_NE(event.kind, Kind::Records);
        closed = event.kind == Kind::ConnectionClosed;
    }
    stopper.join();

    // delivered + dropped + gap = published: the client drops
    // nothing itself, and every bad slot is one server drop that
    // the client sees as a gap.
    const std::uint64_t published = ring.tail();
    EXPECT_EQ(published, static_cast<std::uint64_t>(tick));
    EXPECT_EQ(server.recordsDropped(), kBad);
    EXPECT_EQ(client->gapRecords(), kBad);
    EXPECT_EQ(delivered + client->gapRecords(), published);
}

// ----- listener contract -------------------------------------------------

TEST(FleetListen, LiveEndpointRaisesAddressInUse)
{
    auto registry = makeRegistry(1);
    net::FleetServer server(*registry);
    const std::string path = socketPath();
    server.listen(Endpoint::parse("unix://" + path));

    auto second = makeRegistry(1);
    net::FleetServer competitor(*second);
    try {
        competitor.listen(Endpoint::parse("unix://" + path));
        FAIL() << "second bind on a live endpoint must throw";
    } catch (const AddressInUseError &e) {
        EXPECT_NE(std::string(e.what()).find("already in use"),
                  std::string::npos);
    }

    second->stopAll();
    competitor.stop();
    registry->stopAll();
    server.stop();
}

} // namespace
} // namespace ps3
