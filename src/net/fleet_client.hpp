/**
 * @file
 * PS3N v2 client: one connection, many sensor streams.
 *
 * FleetClient speaks the multiplexed v2 protocol (wire_v2.hpp) to a
 * FleetServer: after the hello it can list the daemon's sensors,
 * open any number of credit-controlled per-sensor streams, feed
 * markers upstream and poll a single merged event queue. It is the
 * substrate of the psfleet tool and of the fleet tests/benchmarks —
 * unlike NetPowerSensor it does not pretend to be one host::Sensor,
 * because a fleet subscription has no single sample rate or config.
 *
 * Gap accounting follows the v1.1 rules per stream: every Data
 * frame carries the sequence of its first record, heartbeats pin
 * the end of quiet intervals, and any jump surfaces as
 * Event::gapRecords on the frame that revealed it.
 */

#ifndef PS3_NET_FLEET_CLIENT_HPP
#define PS3_NET_FLEET_CLIENT_HPP

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "host/dump_writer.hpp"
#include "host/history.hpp"
#include "net/wire.hpp"
#include "net/wire_v2.hpp"
#include "transport/socket_device.hpp"

namespace ps3::net {

/** Multiplexed v2 subscriber session. */
class FleetClient
{
  public:
    /** One decoded downstream frame. */
    struct Event
    {
        enum class Kind
        {
            None,             ///< timeout, nothing arrived
            Records,          ///< raw records on a stream
            Buckets,          ///< aggregate buckets on a stream
            Heartbeat,        ///< liveness + sequence pin
            StreamEnd,        ///< server ended this stream (EOS)
            SubscribeAck,     ///< answer to subscribe()
            Sensors,          ///< answer to requestSensorList()
            ConnectionClosed, ///< socket gone (once)
        };

        Kind kind = Kind::None;
        std::uint16_t streamId = 0;
        /** Raw records of a Records frame (markers folded in). */
        std::vector<host::DumpRecord> records;
        /** Buckets of a Buckets frame (energyJoules filled in). */
        std::vector<std::pair<host::Tier, host::HistoryBucket>>
            buckets;
        /** Sequence of the frame's first record (Records/Buckets). */
        std::uint64_t firstSeq = 0;
        /** Records revealed missing by this frame (gap). */
        std::uint64_t gapRecords = 0;
        /** SubscribeAck payload (kind == SubscribeAck). */
        SubscribeAckFrame ack{};
        /** Sensor table (kind == Sensors). */
        std::vector<SensorDescriptor> sensors;
    };

    /**
     * Connect and complete the v2 handshake.
     * @throws DeviceError on refusal — including a v1-only daemon,
     *         which NACKs the v2 hello with VersionMismatch.
     */
    static std::unique_ptr<FleetClient>
    connect(const transport::Endpoint &endpoint,
            double timeout_seconds);

    /** Sensors the server announced in its hello. */
    std::uint16_t sensorCount() const { return sensorCount_; }

    /** Ask for the sensor table (answered by a Sensors event). */
    void requestSensorList();

    /**
     * Open a stream (answered by a SubscribeAck event). The client
     * proposes the stream id; kControlStreamId is reserved.
     * @param credit Records/buckets the server may send before
     *        waiting for addCredit(); kUnlimitedCredit disables
     *        flow control on the stream.
     */
    void subscribe(std::uint16_t stream_id, std::uint16_t sensor_id,
                   host::Tier tier = host::Tier::Raw,
                   transport::RingOverflow overflow =
                       transport::RingOverflow::DropOldest,
                   std::uint32_t credit = kUnlimitedCredit);

    /** Close a stream (the server answers with its EOS). */
    void unsubscribe(std::uint16_t stream_id);

    /** Grant the server more send credit on a stream. */
    void addCredit(std::uint16_t stream_id, std::uint32_t delta);

    /** Request a marker on a sensor. */
    void mark(std::uint16_t sensor_id, char marker);

    /**
     * Wait up to `timeout_seconds` for the next event.
     * @return false on timeout (event.kind left None).
     * @throws DeviceError on a malformed frame.
     */
    bool poll(Event &event, double timeout_seconds);

    /** Total records revealed missing across all streams. */
    std::uint64_t gapRecords() const { return gapTotal_; }

    /** True once the socket closed or the session ended. */
    bool closed() const { return closed_; }

    /** Hard-disconnect from any thread (unblocks poll()). */
    void abort();

  private:
    FleetClient() = default;

    struct StreamState
    {
        RecordDecoder decoder;
        bool haveSeq = false;
        std::uint64_t expectSeq = 0;
        double sampleRateHz = 0.0;
    };

    bool parseFrame(Event &event);
    StreamState &state(std::uint16_t stream_id);

    std::unique_ptr<transport::SocketDevice> socket_;
    /**
     * Received bytes: frames parse in place from inHead_, reads
     * land at inTail_, and the unparsed rest moves to the front
     * once per read.
     */
    std::vector<std::uint8_t> inBuf_;
    std::size_t inHead_ = 0;
    std::size_t inTail_ = 0;
    std::unordered_map<std::uint16_t, StreamState> streams_;
    std::uint16_t sensorCount_ = 0;
    std::uint64_t gapTotal_ = 0;
    bool closed_ = false;
    bool closeReported_ = false;
};

} // namespace ps3::net

#endif // PS3_NET_FLEET_CLIENT_HPP
