/**
 * @file
 * Device-stream parser: bytes -> frame sets.
 *
 * Responsibilities:
 *  - pair up first/second bytes using the bit-7 role flags, skipping
 *    bytes until the stream re-aligns after corruption (resync);
 *  - group frames into frame sets delimited by timestamp frames;
 *  - unwrap the 10-bit microsecond device timestamp into a continuous
 *    device-time axis using the nominal 50 us cadence.
 *
 * The parser is transport-agnostic and fully synchronous: feed() may
 * be called with arbitrary byte chunks (including single bytes or
 * chunks that split frames) and invokes the frame-set callback for
 * every completed set.
 */

#ifndef PS3_HOST_STREAM_PARSER_HPP
#define PS3_HOST_STREAM_PARSER_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>

#include "firmware/protocol.hpp"
#include "obs/metrics.hpp"

namespace ps3::host {

/** One decoded frame set (all channels sharing a device timestamp). */
struct FrameSet
{
    /** Unwrapped device time (s). */
    double deviceTime = 0.0;
    /** Raw 10-bit level per channel. */
    std::array<std::uint16_t, firmware::kNumChannels> level{};
    /** Channels actually present in this set. */
    std::array<bool, firmware::kNumChannels> valid{};
    /** True if any frame in the set carried the marker flag. */
    bool marker = false;
};

/** Stateful stream parser with resynchronisation. */
class StreamParser
{
  public:
    using FrameSetCallback = std::function<void(const FrameSet &)>;

    /** @param callback Invoked for every completed frame set. */
    explicit StreamParser(FrameSetCallback callback);

    /**
     * Feed a chunk of received bytes.
     *
     * Block-mode fast path: while the stream is aligned (every even
     * offset holds a first byte — the overwhelmingly common case)
     * byte pairs are decoded straight from the chunk; the parser
     * drops to the byte-at-a-time resync walk only around chunk
     * seams and after corruption.
     */
    void feed(const std::uint8_t *data, std::size_t size);

    /**
     * Anchor the device-time axis: absolute device microseconds
     * obtained from the connection-time TimeSync command. Must be
     * called before the first timestamp frame is parsed.
     */
    void setBaseMicros(std::uint64_t micros);

    /**
     * Bytes skipped while hunting for a frame boundary. Safe to call
     * from any thread while another feeds the parser.
     */
    std::uint64_t resyncByteCount() const
    {
        return resyncBytes_.load(std::memory_order_relaxed);
    }

    /** Completed frame sets delivered so far. */
    std::uint64_t frameSetCount() const { return frameSets_; }

    /** Timestamp frames that arrived with no sensor data. */
    std::uint64_t emptySetCount() const { return emptySets_; }

    /**
     * Delivered sets missing channels seen in an earlier set
     * (mid-set frame loss).
     */
    std::uint64_t partialSetCount() const { return partialSets_; }

    /** 10-bit timestamp counter wrap-arounds unwrapped so far. */
    std::uint64_t timestampWrapCount() const { return wraps_; }

    /** Sets abandoned mid-accumulation by flush(). */
    std::uint64_t droppedSetCount() const { return droppedSets_; }

    /**
     * Data frames dropped because their sensor id is outside
     * [0, kNumChannels). Unreachable from the 3-bit wire encoding
     * today, but pinned by a counter so a future channel-count
     * reduction cannot silently discard data.
     */
    std::uint64_t badChannelFrameCount() const
    {
        return badChannelFrames_;
    }

    /**
     * Discard partial state (e.g. after an intentional stream stop)
     * while keeping the device-time unwrapping context.
     *
     * Contract (pinned by tests/test_host_parser.cpp):
     *  - resyncByteCount() and frameSetCount() are lifetime-cumulative
     *    and are NOT reset: a stop/start cycle never rewinds counters;
     *  - a pending first byte and a half-accumulated set are dropped
     *    silently (droppedSetCount() ticks if the set held data, but
     *    the discarded bytes do not count as resync bytes);
     *  - the timestamp-unwrap context survives, so the device-time
     *    axis continues monotonically after the stream restarts.
     *    Caveat: the 10-bit counter only disambiguates gaps shorter
     *    than kTimestampModulus microseconds; across a longer real
     *    stream pause the axis slips by a multiple of the modulus
     *    (irrelevant for the pull-driven simulator, whose clock only
     *    advances while producing frames).
     */
    void flush();

  private:
    /** Unit tests inject synthetic frames through handleFrame(). */
    friend struct StreamParserTestPeer;

    FrameSetCallback callback_;
    std::optional<std::uint8_t> pendingFirstByte_;

    /** Set currently being accumulated (valid after its timestamp). */
    FrameSet currentSet_;
    bool inSet_ = false;

    /** Timestamp unwrapping state. */
    bool haveLastTimestamp_ = false;
    std::uint16_t lastTimestamp10_ = 0;
    std::uint64_t deviceMicros_ = 0;

    /**
     * Written only by the feeding thread (relaxed load + store, no
     * RMW), read by any thread through resyncByteCount().
     */
    std::atomic<std::uint64_t> resyncBytes_{0};
    std::uint64_t frameSets_ = 0;
    std::uint64_t emptySets_ = 0;
    std::uint64_t partialSets_ = 0;
    std::uint64_t wraps_ = 0;
    std::uint64_t droppedSets_ = 0;
    std::uint64_t badChannelFrames_ = 0;
    /** Most valid channels seen in one set (partial-set baseline). */
    unsigned peakChannels_ = 0;

    /**
     * Registry instruments, fed in batches: the per-byte loop only
     * bumps the plain members above; publishMetrics() pushes the
     * deltas since the last publish at the end of each feed()/flush()
     * call, keeping the hot path free of atomics.
     */
    obs::Counter &metricResyncBytes_;
    obs::Counter &metricFrameSets_;
    obs::Counter &metricEmptySets_;
    obs::Counter &metricPartialSets_;
    obs::Counter &metricWraps_;
    obs::Counter &metricDroppedSets_;
    obs::Counter &metricBadChannelFrames_;
    std::uint64_t publishedResyncBytes_ = 0;
    std::uint64_t publishedFrameSets_ = 0;
    std::uint64_t publishedEmptySets_ = 0;
    std::uint64_t publishedPartialSets_ = 0;
    std::uint64_t publishedWraps_ = 0;
    std::uint64_t publishedDroppedSets_ = 0;
    std::uint64_t publishedBadChannelFrames_ = 0;

    /** Slow path: one byte through the resync state machine. */
    void feedByte(std::uint8_t byte);

    void handleFrame(const firmware::Frame &frame);
    /** Count skipped bytes (single writer: load + store). */
    void addResyncBytes(std::uint64_t n)
    {
        resyncBytes_.store(
            resyncBytes_.load(std::memory_order_relaxed) + n,
            std::memory_order_relaxed);
    }
    void beginSet(std::uint16_t timestamp10);
    void finishSet();
    void publishMetrics();
};

} // namespace ps3::host

#endif // PS3_HOST_STREAM_PARSER_HPP
