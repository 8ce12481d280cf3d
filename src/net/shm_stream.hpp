/**
 * @file
 * The shared-memory data plane of the streaming subsystem.
 *
 * A `shm://` endpoint (docs/SHMEM.md) is a Unix-domain *control*
 * socket plus a shared broadcast ring: the server performs the
 * normal PS3N handshake on the socket, then sends a 16-byte ShmInfo
 * frame with the ring segment's descriptor attached (SCM_RIGHTS).
 * The subscriber maps the segment read-only and reads records
 * through its own cursor with zero steady-state syscalls — no
 * read()/recv() per record, ever; the control socket stays open for
 * upstream marker requests and abrupt-death detection.
 *
 * StreamSlot is the ring's payload: a record's wire bytes and their
 * length, nothing else. The producer encodes each record once;
 * socket senders copy or gather those bytes straight out of the
 * ring, and every reader that needs values (tier folds, shm
 * subscribers) decodes them with the wire codec's one record parser
 * (readSlot). A 1-pair record — epoch, length and 26 bytes — fits
 * in one cache line.
 *
 * Liveness: the server bumps the ring's heartbeat epoch from its
 * accept loop (~0.2 s period). A subscriber that sees neither new
 * records nor heartbeat progress within its idle budget declares
 * the producer dead; a graceful shutdown sets the producer-gone
 * flag after the last record, so the subscriber drains the ring
 * completely first. Either way the usual reconnect machinery in
 * NetPowerSensor redials the control socket, and sequence
 * accounting (PS3N v1.1 rules) surfaces the hole — a restarted
 * daemon's sequences start over, which the client reports as a
 * gap of unknown size exactly like a socket stream would.
 */

#ifndef PS3_NET_SHM_STREAM_HPP
#define PS3_NET_SHM_STREAM_HPP

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "host/dump_writer.hpp"
#include "net/wire.hpp"
#include "transport/broadcast_ring.hpp"
#include "transport/shm_segment.hpp"
#include "transport/socket_device.hpp"

namespace ps3::net {

/**
 * One broadcast-ring slot: a record's wire encoding (encodeRecordTo)
 * and its length. encodedLen is a full word so readers can snoop it
 * with one atomic load (BroadcastRing::wordAt) before copying the
 * bytes; producers publish only the length word plus encodedLen
 * bytes (BroadcastRing::publishPrefix).
 */
struct StreamSlot
{
    std::uint64_t encodedLen = 0;
    std::uint8_t encoded[kMaxEncodedRecordBytes];
};

static_assert(offsetof(StreamSlot, encodedLen) == 0,
              "readers snoop the length as the first slot word");

/** The slot word holding encodedLen (BroadcastRing::wordAt). */
inline constexpr std::size_t kSlotLenWord =
    offsetof(StreamSlot, encodedLen) / 8;

/** Byte offset of the encoded bytes inside a slot payload. */
inline constexpr std::size_t kSlotEncodedOffset =
    offsetof(StreamSlot, encoded);

static_assert(kSlotEncodedOffset % 8 == 0,
              "the encoded bytes start on a word boundary");

/** The broadcast ring every subscriber reads from. */
using StreamRing = transport::BroadcastRing<StreamSlot>;

static_assert(StreamRing::kSlotStride == 128,
              "epoch + length + a 1-pair record share a cache line");

/** Outcome of readSlot(). */
enum class SlotRead
{
    Ok,     ///< record decoded from an intact slot
    Lapped, ///< slot reused for a newer sequence during the read
    Corrupt ///< intact slot whose length or bytes do not decode
};

/**
 * Read published sequence `seq` (below the ring's tail — claimed
 * through a cursor, or checked against tail()) and decode it: load
 * the length word, copy the encoded bytes with atomic word loads,
 * validate the slot epoch once, then decode (decodeRecordFrom).
 * A Corrupt slot is the caller's to drop and count, never to
 * deliver.
 */
SlotRead readSlot(const StreamRing &ring, std::uint64_t seq,
                  host::DumpRecord &record);

/** ShmInfo frame magic ("PS3M") and version. */
inline constexpr char kShmMagic[4] = {'P', 'S', '3', 'M'};
inline constexpr std::uint8_t kShmVersion = 1;

/** Serialised ShmInfo size (fixed). */
inline constexpr std::size_t kShmInfoSize = 16;

/**
 * The segment-handover frame, server -> client, sent right after a
 * successful ServerHello on a shm:// endpoint with the segment
 * descriptor attached to the same message.
 */
struct ShmInfo
{
    std::uint64_t segmentBytes = 0;

    /** Serialise to the fixed kShmInfoSize bytes. */
    void encode(std::uint8_t out[kShmInfoSize]) const;

    /**
     * Parse a received frame.
     * @throws DeviceError on bad magic or version.
     */
    static ShmInfo decode(const std::uint8_t *data,
                          std::size_t size);
};

/**
 * Server side: send the ShmInfo frame + segment descriptor over the
 * control socket (one sendmsg with SCM_RIGHTS).
 * @throws DeviceError when the peer is gone.
 */
void sendShmHandover(transport::SocketDevice &control,
                     const transport::ShmSegment &segment);

/**
 * Raw-descriptor variant for servers that own their fds directly
 * (the epoll fleet server has no SocketDevice per connection).
 * @throws DeviceError when the peer is gone.
 */
void sendShmHandover(int control_fd,
                     const transport::ShmSegment &segment);

/**
 * Client side: one mapped subscription to a server's broadcast
 * ring. Construction receives the handover frame, maps the segment
 * read-only and validates the ring layout. poll() is the entire
 * hot path — pure loads from the mapping, no syscalls.
 */
class ShmSubscriber
{
  public:
    /** One poll() outcome. */
    enum class Poll
    {
        Record,     ///< a record was copied out
        Empty,      ///< caught up; nothing new yet
        EndOfStream ///< producer gone and the ring is drained
    };

    /**
     * Receive the handover on the (already handshaken) control
     * socket and map the ring.
     * @throws DeviceError on timeout, a bad frame, a missing
     *         descriptor or an alien segment layout.
     */
    static std::unique_ptr<ShmSubscriber>
    attach(transport::SocketDevice &control, double timeout_seconds);

    /**
     * Try to read the next record (never blocks, no syscalls). A
     * lap (the reader fell a whole ring behind) skips forward to
     * the oldest live record transparently; the jump shows up in
     * `seq`, which is exactly what the caller's v1.1 sequence
     * accounting turns into a gap event. A slot that does not
     * decode is skipped and counted in dropped(); its sequence
     * shows up as a gap the same way.
     */
    Poll poll(host::DumpRecord &record, std::uint64_t &seq);

    /**
     * Adaptive idle wait between empty polls: spin first (records
     * arrive every 50 us at full rate), then yield, then sleep in
     * growing steps capped at 1 ms. Resets on every record.
     */
    void backoff();

    /**
     * Liveness check (call from the idle path, not per record):
     * false once the producer's heartbeat epoch stalled for longer
     * than `stale_seconds`. Internally rate-limited to one clock
     * read per call.
     */
    bool producerAlive(double stale_seconds);

    /** Next sequence this subscriber will read. */
    std::uint64_t position() const { return cursor_; }

    /** Records skipped because the reader was lapped. */
    std::uint64_t lapped() const { return lapped_; }

    /** Records skipped because their slot did not decode. */
    std::uint64_t dropped() const { return dropped_; }

    /** The mapped ring (tests; never null). */
    const StreamRing *ring() const { return ring_; }

  private:
    ShmSubscriber() = default;

    transport::ShmSegment segment_;
    const StreamRing *ring_ = nullptr;
    std::uint64_t cursor_ = 0;
    std::uint64_t tailSeen_ = 0; ///< last tail() read by poll()
    std::uint64_t lapped_ = 0;
    std::uint64_t dropped_ = 0;
    unsigned idleSpins_ = 0;
    std::uint64_t lastHeartbeat_ = 0;
    std::chrono::steady_clock::time_point lastBeatTime_{};
};

} // namespace ps3::net

#endif // PS3_NET_SHM_STREAM_HPP
