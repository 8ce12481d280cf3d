#include "stream_parser.hpp"

#include "common/errors.hpp"
#include "obs/registry.hpp"

namespace ps3::host {

using firmware::Frame;
using firmware::isFirstByte;
using firmware::kTimestampModulus;

namespace {

obs::Counter &
parserCounter(const char *name, const char *help)
{
    return obs::Registry::global().counter(name, help);
}

} // namespace

StreamParser::StreamParser(FrameSetCallback callback)
    : callback_(std::move(callback)),
      metricResyncBytes_(parserCounter(
          "ps3_parser_resync_bytes_total",
          "Bytes skipped while re-aligning to a frame boundary")),
      metricFrameSets_(parserCounter(
          "ps3_parser_frame_sets_total",
          "Complete frame sets delivered to the host library")),
      metricEmptySets_(parserCounter(
          "ps3_parser_empty_sets_total",
          "Timestamp frames that carried no sensor data")),
      metricPartialSets_(parserCounter(
          "ps3_parser_partial_sets_total",
          "Delivered sets missing previously-seen channels")),
      metricWraps_(parserCounter(
          "ps3_parser_timestamp_wraps_total",
          "10-bit device timestamp wrap-arounds unwrapped")),
      metricDroppedSets_(parserCounter(
          "ps3_parser_dropped_sets_total",
          "Partially accumulated sets abandoned by flush()")),
      metricBadChannelFrames_(parserCounter(
          "ps3_parser_bad_channel_total",
          "Data frames dropped for an out-of-range sensor id"))
{
    if (!callback_)
        throw UsageError("StreamParser: null callback");
}

void
StreamParser::feedByte(std::uint8_t byte)
{
    if (!pendingFirstByte_) {
        if (!isFirstByte(byte)) {
            // Expected a frame start; hunt for one (resync).
            addResyncBytes(1);
            return;
        }
        pendingFirstByte_ = byte;
        return;
    }
    if (isFirstByte(byte)) {
        // Two first-bytes in a row: the second byte of the previous
        // frame was lost. Drop the stale first byte and start over
        // with this one.
        addResyncBytes(1);
        pendingFirstByte_ = byte;
        return;
    }
    const Frame frame = firmware::decodeFrame(*pendingFirstByte_, byte);
    pendingFirstByte_.reset();
    handleFrame(frame);
}

void
StreamParser::feed(const std::uint8_t *data, std::size_t size)
{
    std::size_t i = 0;

    // A first byte left over from the previous chunk: walk the byte
    // path until the pair completes (or the leftover is replaced by
    // a fresher first byte and then completed).
    while (i < size && pendingFirstByte_)
        feedByte(data[i++]);

    // Block mode: decode whole pairs straight from the chunk. Each
    // iteration either consumes an aligned frame (the common case)
    // or skips exactly one resync byte, so the loop is equivalent to
    // the byte walk without the per-byte optional bookkeeping.
    while (i + 1 < size) {
        const std::uint8_t b0 = data[i];
        if (!isFirstByte(b0)) {
            addResyncBytes(1);
            ++i;
            continue;
        }
        const std::uint8_t b1 = data[i + 1];
        if (isFirstByte(b1)) {
            // b0's partner was lost; b1 may start a valid frame.
            addResyncBytes(1);
            ++i;
            continue;
        }
        i += 2;
        handleFrame(firmware::decodeFrameUnchecked(b0, b1));
    }

    // At most one trailing byte: becomes the pending first byte (or
    // a resync byte) for the next chunk.
    if (i < size)
        feedByte(data[i]);

    publishMetrics();
}

void
StreamParser::publishMetrics()
{
    // Deltas since the last publish; feed() is called with whole
    // read chunks, so this amortises to well under one atomic add
    // per frame set.
    const std::uint64_t resync_bytes = resyncByteCount();
    metricResyncBytes_.inc(resync_bytes - publishedResyncBytes_);
    publishedResyncBytes_ = resync_bytes;
    metricFrameSets_.inc(frameSets_ - publishedFrameSets_);
    publishedFrameSets_ = frameSets_;
    metricEmptySets_.inc(emptySets_ - publishedEmptySets_);
    publishedEmptySets_ = emptySets_;
    metricPartialSets_.inc(partialSets_ - publishedPartialSets_);
    publishedPartialSets_ = partialSets_;
    metricWraps_.inc(wraps_ - publishedWraps_);
    publishedWraps_ = wraps_;
    metricDroppedSets_.inc(droppedSets_ - publishedDroppedSets_);
    publishedDroppedSets_ = droppedSets_;
    metricBadChannelFrames_.inc(badChannelFrames_
                                - publishedBadChannelFrames_);
    publishedBadChannelFrames_ = badChannelFrames_;
}

void
StreamParser::handleFrame(const Frame &frame)
{
    if (frame.isTimestamp()) {
        // A timestamp opens a new set; whatever was accumulating is
        // complete (or abandoned if it never got data).
        if (inSet_)
            finishSet();
        beginSet(frame.level);
        return;
    }
    if (!inSet_) {
        // Sensor data before any timestamp: cannot be time-aligned,
        // count it as resync noise.
        addResyncBytes(2);
        return;
    }
    if (frame.sensorId >= firmware::kNumChannels) {
        // Cannot happen with the 3-bit wire encoding, but a smaller
        // kNumChannels build must not silently discard data.
        ++badChannelFrames_;
        return;
    }
    currentSet_.level[frame.sensorId] = frame.level;
    currentSet_.valid[frame.sensorId] = true;
    if (frame.marker)
        currentSet_.marker = true;
}

void
StreamParser::beginSet(std::uint16_t timestamp10)
{
    if (!haveLastTimestamp_) {
        // Align the 10-bit counter with the base established by the
        // connection-time sync (deviceMicros_ holds the base).
        const std::uint64_t base_mod = deviceMicros_ % kTimestampModulus;
        const std::uint64_t delta =
            (timestamp10 + kTimestampModulus - base_mod)
            % kTimestampModulus;
        deviceMicros_ += delta;
        haveLastTimestamp_ = true;
    } else {
        std::uint64_t delta =
            (timestamp10 + kTimestampModulus - lastTimestamp10_)
            % kTimestampModulus;
        if (delta == 0)
            delta = kTimestampModulus;
        if (timestamp10 <= lastTimestamp10_)
            ++wraps_; // counter passed the modulus since last set
        deviceMicros_ += delta;
    }
    lastTimestamp10_ = timestamp10;

    currentSet_ = FrameSet{};
    currentSet_.deviceTime = static_cast<double>(deviceMicros_) * 1e-6;
    inSet_ = true;
}

void
StreamParser::finishSet()
{
    inSet_ = false;
    unsigned channels = 0;
    for (bool v : currentSet_.valid)
        channels += v ? 1 : 0;
    if (channels == 0) {
        ++emptySets_;
        return; // timestamp with no data: nothing to deliver
    }
    if (channels < peakChannels_)
        ++partialSets_;
    else
        peakChannels_ = channels;
    ++frameSets_;
    callback_(currentSet_);
}

void
StreamParser::setBaseMicros(std::uint64_t micros)
{
    if (haveLastTimestamp_)
        throw UsageError("StreamParser: base set after first timestamp");
    deviceMicros_ = micros;
}

void
StreamParser::flush()
{
    if (inSet_) {
        // A set was accumulating when the stream stopped; its data
        // frames are discarded without being delivered or counted as
        // resync bytes (see the header contract).
        for (bool v : currentSet_.valid) {
            if (v) {
                ++droppedSets_;
                break;
            }
        }
    }
    pendingFirstByte_.reset();
    inSet_ = false;
    currentSet_ = FrameSet{};
    publishMetrics();
}

} // namespace ps3::host
