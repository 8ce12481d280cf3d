/**
 * @file
 * Network wire protocol of the streaming subsystem (ps3d).
 *
 * Documented in docs/PROTOCOL.md ("Network wire protocol"); the
 * summary:
 *
 *  1. Handshake. The client sends a fixed 8-byte ClientHello (magic
 *     "PS3N", protocol version, requested overflow policy); the
 *     server answers with a ServerHello — magic, version, a status
 *     code, and on success a payload echoing the sensor
 *     configuration (the CFG1 blob), the sample rate and the
 *     device's firmware version string. Any mismatch is answered
 *     with a non-zero status and a per-connection close; the server
 *     never dies on a bad hello.
 *
 *  2. Stream. The server sends length-prefixed batches: a u32 LE
 *     payload size followed by concatenated records in the dump-v2
 *     little-endian f64 layout (see encodeRecord). A zero-length
 *     batch is the end-of-stream marker of a graceful shutdown.
 *     Payloads above kMaxBatchBytes are a protocol violation.
 *
 *     When both sides speak minor >= 1 (v1.1), each batch payload
 *     begins with a u64 LE sequence number — the stream index of the
 *     payload's first record — so the client can detect holes
 *     (DropOldest overflow upstream, a reconnect) exactly. The
 *     length-prefix value 0xFFFFFFFF is a heartbeat frame: its fixed
 *     8-byte payload carries the sequence number the subscriber's
 *     next record will have, keeping liveness and gap accounting
 *     flowing while the stream idles. v1.0 peers never see either.
 *
 *     When both sides speak minor >= 2 (v1.2), the client may
 *     request a reduced-rate tier (host::Tier) in ClientHello byte 7;
 *     the server echoes the granted tier as a trailing ServerHello
 *     payload byte and then streams 'A' aggregate-bucket records
 *     (encodeBucket) instead of raw 'S' samples, batching
 *     consecutive closed buckets into shared frames. Marked records
 *     bypass aggregation and ride raw in between, so a tiered stream
 *     interleaves 'A' with 'M'+'S'. An 'A' record advances the
 *     sequence space by its sample count.
 *
 *  3. Upstream. After the handshake the client may send 2-byte
 *     marker requests ('M' + character), forwarded to the sensor,
 *     and — against a v1.2 server — 2-byte tier requests
 *     ('T' + host::Tier byte) to renegotiate the stream resolution
 *     mid-stream.
 *
 * Everything here is plain serialisation — no sockets, no threads —
 * so the codec is unit-testable in isolation.
 */

#ifndef PS3_NET_WIRE_HPP
#define PS3_NET_WIRE_HPP

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "firmware/protocol.hpp"
#include "host/dump_writer.hpp"
#include "host/history.hpp"
#include "transport/spsc_pod_ring.hpp"

namespace ps3::net {

/** Handshake magic: first four bytes of either hello. */
inline constexpr char kMagic[4] = {'P', 'S', '3', 'N'};

/** Protocol version spoken by this library. */
inline constexpr std::uint8_t kProtocolVersion = 1;

/**
 * Protocol minor version. v1.1 added per-batch sequence numbers and
 * heartbeat frames; v1.2 adds tier negotiation and 'A' aggregate
 * records. Negotiated down to min(client, server) — the minor byte
 * rides in fields older peers ignore, so either side may be old.
 */
inline constexpr std::uint8_t kProtocolMinor = 2;

/** Serialised ClientHello size (fixed). */
inline constexpr std::size_t kClientHelloSize = 8;

/** Serialised ServerHello prefix size (before the payload). */
inline constexpr std::size_t kServerHelloPrefixSize = 8;

/** Upper bound on one stream batch payload (sanity check). */
inline constexpr std::size_t kMaxBatchBytes = 1u << 20;

/**
 * Length-prefix sentinel announcing a heartbeat frame (v1.1). Safely
 * out of band: real payloads are bounded by kMaxBatchBytes.
 */
inline constexpr std::uint32_t kHeartbeatSentinel = 0xFFFFFFFFu;

/** Heartbeat frame payload size (u64 LE next-record sequence). */
inline constexpr std::size_t kHeartbeatPayloadSize = 8;

/** Batch payload header size when both peers speak v1.1. */
inline constexpr std::size_t kBatchSeqHeaderSize = 8;

/** Upstream message: marker request command byte. */
inline constexpr std::uint8_t kMarkerRequest = 'M';

/** Upstream message: tier renegotiation command byte (v1.2). */
inline constexpr std::uint8_t kTierRequest = 'T';

/** Fixed part of an 'A' aggregate record (before the pair sums). */
inline constexpr std::size_t kBucketRecordFixedSize = 3 + 4 * 8 + 4;

/** Marker prefix of an encoded record: 'M' char f64-time. */
inline constexpr std::size_t kMarkerPrefixBytes = 2 + 8;

/** Smallest encoded record: an 'S' record with no pair present. */
inline constexpr std::size_t kMinEncodedRecordBytes = 2 + 8;

/**
 * Upper bound on one encoded record: a marker prefix plus an 'S'
 * record with every pair present. Sizes the broadcast-ring slot
 * (net/shm_stream.hpp), which holds nothing but these bytes.
 */
inline constexpr std::size_t kMaxEncodedRecordBytes =
    kMarkerPrefixBytes + kMinEncodedRecordBytes
    + host::kMaxPairs * 16;

/** ServerHello status codes. */
enum class HelloStatus : std::uint8_t
{
    Ok = 0,
    BadMagic = 1,        ///< client hello did not start with "PS3N"
    VersionMismatch = 2, ///< client speaks a different version
    ServerFull = 3,      ///< subscriber limit reached
    BadHello = 4,        ///< malformed or truncated client hello
};

/** Human-readable form of a HelloStatus (error messages). */
std::string describeStatus(HelloStatus status);

/** First message on a connection, client -> server. */
struct ClientHello
{
    std::uint8_t version = kProtocolVersion;
    /** Requested per-subscriber queue overflow policy. */
    transport::RingOverflow overflow =
        transport::RingOverflow::Block;
    /**
     * Highest minor the client speaks; lives in a byte v1.0 servers
     * treat as reserved (and v1.0 clients send as 0), so it doubles
     * as the advertisement and the backwards-compatibility story.
     * (Declared after overflow so pre-v1.1 aggregate initialisers
     * keep their meaning.)
     */
    std::uint8_t minor = kProtocolMinor;
    /**
     * Requested stream tier (v1.2); rides in byte 7, which older
     * peers send as 0 — exactly Tier::Raw. Values above
     * host::kMaxTierValue reject with BadHello.
     */
    host::Tier tier = host::Tier::Raw;

    /** Serialise to the fixed kClientHelloSize bytes. */
    std::vector<std::uint8_t> encode() const;

    /**
     * Parse a received hello.
     * @return The decoded hello, or the status to reject with.
     */
    static std::optional<ClientHello>
    decode(const std::uint8_t *data, std::size_t size,
           HelloStatus &reject_status);
};

/** Handshake reply, server -> client. */
struct ServerHello
{
    std::uint8_t version = kProtocolVersion;
    /**
     * Highest minor the server speaks, appended after the config
     * blob in the payload. v1.0 clients only lower-bound the payload
     * size, so the trailing byte is invisible to them; a missing
     * byte decodes as minor 0.
     */
    std::uint8_t minor = kProtocolMinor;
    /**
     * Granted stream tier (v1.2), appended after the minor byte in
     * the payload; absent from pre-v1.2 servers and then decoded as
     * Tier::Raw.
     */
    host::Tier tier = host::Tier::Raw;
    HelloStatus status = HelloStatus::Ok;
    /** Sample rate of the streamed records (Hz). */
    double sampleRateHz = 0.0;
    /** Device firmware version string (truncated to 255 chars). */
    std::string firmwareVersion;
    /** Sensor configuration echo (empty on rejection). */
    firmware::DeviceConfig config{};

    /** Serialise (prefix + payload; payload empty on rejection). */
    std::vector<std::uint8_t> encode() const;

    /**
     * Parse the 8-byte prefix.
     * @return Payload length to read next.
     * @throws DeviceError on bad magic or version.
     */
    static std::size_t decodePrefix(const std::uint8_t *data,
                                    std::size_t size,
                                    ServerHello &out);

    /**
     * Parse the payload (status Ok only).
     * @throws DeviceError on malformed payload.
     */
    void decodePayload(const std::uint8_t *data, std::size_t size);
};

/**
 * Append one record to a batch payload in the dump-v2 layout:
 * marker prefix "'M' char f64-time" when flagged, then
 * "'S' presentMask f64-time { f64-volt f64-amp } per present pair".
 */
void encodeRecord(std::vector<std::uint8_t> &out,
                  const host::DumpRecord &record);

/**
 * Encode one record into a fixed buffer of at least
 * kMaxEncodedRecordBytes (the hot path: the server encodes every
 * record exactly once, into its broadcast-ring slot, and all raw
 * subscribers share those bytes).
 * @return Bytes written.
 */
std::size_t encodeRecordTo(std::uint8_t *out,
                           const host::DumpRecord &record);

/**
 * Decode the record at the front of `data`: an optional marker
 * prefix, then one 'S' sample record — exactly what
 * encodeRecordTo() writes. The one parser of that layout: the
 * batch decoder (RecordDecoder::feed) and every broadcast-ring slot
 * reader (net/shm_stream.hpp) go through it. Fields the wire does
 * not carry (absent pairs, the gap annotation) come back zero.
 * @return Bytes consumed, or 0 when `data` does not start with a
 *         complete, well-formed record.
 */
std::size_t decodeRecordFrom(const std::uint8_t *data,
                             std::size_t size,
                             host::DumpRecord &record);

/**
 * Append one aggregate bucket to a batch payload (v1.2):
 * "'A' tier presentMask f64-start f64-min f64-max f64-sumPower
 *  u32-samples { f32-sumVolt f32-sumAmp } per present pair".
 *
 * Shedding bandwidth is the tier's whole purpose, so the record
 * omits what the subscriber can derive: endTime is startTime plus
 * the tier period (a partial flush keeps the nominal window end),
 * and energyJoules is exactly sumPower / sample-rate (both sides
 * accumulate power * nominal-dt per sample). The decoder
 * reconstructs endTime from the tier; energy needs the handshake's
 * sample rate, so it leaves energyJoules at 0 for the caller
 * (NetPowerSensor::onBucket) to fill in. Pair V/I sums travel as
 * f32 — they only reconstruct mean operating points. An 'A' record
 * advances the stream sequence space by `bucket.samples`.
 */
void encodeBucket(std::vector<std::uint8_t> &out, host::Tier tier,
                  const host::HistoryBucket &bucket);

/** Append a u64 little-endian (batch seq header, heartbeat). */
void appendU64(std::vector<std::uint8_t> &out, std::uint64_t v);

/** Read a u64 little-endian; caller guarantees 8 readable bytes. */
std::uint64_t readU64(const std::uint8_t *p);

/**
 * Build a complete heartbeat frame (v1.1): the 0xFFFFFFFF sentinel
 * length prefix followed by the u64 LE sequence number of the
 * subscriber's next record.
 */
std::vector<std::uint8_t> encodeHeartbeat(std::uint64_t next_seq);

/**
 * Incremental batch decoder (client side).
 *
 * feed() consumes one batch payload and invokes the callback per
 * decoded record (decodeRecordFrom); a marker prefix is folded into
 * the record that follows it (matching how the encoder emits them),
 * and one that ends a batch carries over to the next batch's first
 * record. 'A' aggregate records (v1.2) fire the bucket callback;
 * feeding one without a bucket callback is a protocol violation.
 * Malformed input raises DeviceError.
 */
class RecordDecoder
{
  public:
    /** Callback invoked once per decoded record. */
    using Callback = void (*)(void *context,
                              const host::DumpRecord &record);

    /** Callback invoked once per decoded aggregate bucket (v1.2). */
    using BucketCallback = void (*)(void *context, host::Tier tier,
                                    const host::HistoryBucket &bucket);

    /** Decode one payload, firing the callbacks per record. */
    void feed(const std::uint8_t *data, std::size_t size,
              void *context, Callback cb,
              BucketCallback bucket_cb = nullptr);

    /** Raw records decoded so far. */
    std::uint64_t recordCount() const { return recordCount_; }

    /** Aggregate buckets decoded so far. */
    std::uint64_t bucketCount() const { return bucketCount_; }

  private:
    /** Marker seen, waiting for its sample record. */
    bool pendingMarker_ = false;
    char pendingMarkerChar_ = '\0';
    std::uint64_t recordCount_ = 0;
    std::uint64_t bucketCount_ = 0;
};

} // namespace ps3::net

#endif // PS3_NET_WIRE_HPP
