#include "net/shm_stream.hpp"

#include <algorithm>
#include <cstring>
#include <thread>
#include <unistd.h>

#include "common/errors.hpp"

namespace ps3::net {

SlotRead readSlot(const StreamRing &ring, std::uint64_t seq,
                  host::DumpRecord &record)
{
    const std::uint64_t len = ring.wordAt(seq, kSlotLenWord);
    const bool plausible = len >= kMinEncodedRecordBytes
                           && len <= kMaxEncodedRecordBytes;
    std::uint64_t words[(kMaxEncodedRecordBytes + 7) / 8];
    if (plausible) {
        for (std::size_t w = 0; w < (len + 7) / 8; ++w)
            words[w] = ring.wordAt(seq, kSlotEncodedOffset / 8 + w);
    }
    if (!ring.stillValid(seq))
        return SlotRead::Lapped;
    const auto *bytes = reinterpret_cast<const std::uint8_t *>(words);
    const auto n = static_cast<std::size_t>(len);
    if (!plausible || decodeRecordFrom(bytes, n, record) != n)
        return SlotRead::Corrupt;
    return SlotRead::Ok;
}

void ShmInfo::encode(std::uint8_t out[kShmInfoSize]) const
{
    std::memcpy(out, kShmMagic, 4);
    out[4] = kShmVersion;
    out[5] = out[6] = out[7] = 0;
    std::uint64_t v = segmentBytes;
    for (unsigned i = 0; i < 8; ++i) {
        out[8 + i] = static_cast<std::uint8_t>(v & 0xFF);
        v >>= 8;
    }
}

ShmInfo ShmInfo::decode(const std::uint8_t *data, std::size_t size)
{
    if (size < kShmInfoSize)
        throw DeviceError("shm handover: truncated ShmInfo frame");
    if (std::memcmp(data, kShmMagic, 4) != 0)
        throw DeviceError("shm handover: bad ShmInfo magic");
    if (data[4] != kShmVersion)
        throw DeviceError(
            "shm handover: unsupported segment version "
            + std::to_string(static_cast<unsigned>(data[4])));
    ShmInfo info;
    for (unsigned i = 0; i < 8; ++i)
        info.segmentBytes |= static_cast<std::uint64_t>(data[8 + i])
                             << (8 * i);
    return info;
}

void sendShmHandover(transport::SocketDevice &control,
                     const transport::ShmSegment &segment)
{
    sendShmHandover(control.nativeHandle(), segment);
}

void sendShmHandover(int control_fd,
                     const transport::ShmSegment &segment)
{
    ShmInfo info;
    info.segmentBytes = segment.size();
    std::uint8_t frame[kShmInfoSize];
    info.encode(frame);
    transport::sendWithFd(control_fd, frame, kShmInfoSize,
                          segment.fd());
}

std::unique_ptr<ShmSubscriber>
ShmSubscriber::attach(transport::SocketDevice &control,
                      double timeout_seconds)
{
    std::uint8_t frame[kShmInfoSize];
    int fd = -1;
    if (!transport::recvWithFd(control.nativeHandle(), frame,
                               kShmInfoSize, fd, timeout_seconds))
        throw DeviceError("shm handover: control socket closed "
                          "before the segment arrived");

    ShmInfo info;
    try {
        info = ShmInfo::decode(frame, kShmInfoSize);
    } catch (...) {
        if (fd >= 0)
            ::close(fd);
        throw;
    }
    if (fd < 0)
        throw DeviceError(
            "shm handover: ShmInfo frame carried no descriptor");

    // attach() owns fd from here, including on failure.
    std::unique_ptr<ShmSubscriber> sub(new ShmSubscriber());
    sub->segment_ = transport::ShmSegment::attach(fd, true);
    if (sub->segment_.size() < info.segmentBytes)
        throw DeviceError(
            "shm handover: segment smaller than announced ("
            + std::to_string(sub->segment_.size()) + " < "
            + std::to_string(info.segmentBytes) + " bytes)");
    sub->ring_ =
        StreamRing::attach(sub->segment_.data(), sub->segment_.size());
    if (sub->ring_ == nullptr)
        throw DeviceError(
            "shm handover: segment does not hold a compatible "
            "broadcast ring (layout or version mismatch)");
    // Join live: start at the next record to be published, exactly
    // like a socket subscriber. Sequence accounting baselines on the
    // first record either way.
    sub->cursor_ = sub->ring_->tail();
    sub->lastHeartbeat_ = sub->ring_->heartbeat();
    sub->lastBeatTime_ = std::chrono::steady_clock::now();
    return sub;
}

ShmSubscriber::Poll ShmSubscriber::poll(host::DumpRecord &record,
                                        std::uint64_t &seq)
{
    for (;;) {
        // Reload the producer's tail line only once the snapshot is
        // used up, not once per record.
        if (cursor_ >= tailSeen_) {
            tailSeen_ = ring_->tail();
            if (cursor_ >= tailSeen_) {
                if (ring_->producerGone() && cursor_ >= ring_->tail())
                    return Poll::EndOfStream;
                return Poll::Empty;
            }
        }
        switch (readSlot(*ring_, cursor_, record)) {
        case SlotRead::Ok:
            seq = cursor_++;
            idleSpins_ = 0;
            return Poll::Record;
        case SlotRead::Corrupt:
            ++dropped_;
            ++cursor_;
            break;
        case SlotRead::Lapped: {
            // Skip to the oldest record that still exists; the
            // sequence jump is the caller's gap signal.
            const std::uint64_t oldest =
                std::max(ring_->oldest(), cursor_ + 1);
            lapped_ += oldest - cursor_;
            cursor_ = oldest;
            break;
        }
        }
    }
}

void ShmSubscriber::backoff()
{
    ++idleSpins_;
    if (idleSpins_ < 64) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
        return;
    }
    if (idleSpins_ < 256) {
        std::this_thread::yield();
        return;
    }
    // 50 us doubling every 64 idle rounds, capped at 1 ms: a fresh
    // record wakes us within one step, an idle stream costs ~1k
    // wakeups per second at the floor.
    const unsigned step = std::min((idleSpins_ - 256) / 64, 4u);
    const unsigned micros = std::min(50u << step, 1000u);
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
}

bool ShmSubscriber::producerAlive(double stale_seconds)
{
    const auto now = std::chrono::steady_clock::now();
    const std::uint64_t beat = ring_->heartbeat();
    if (beat != lastHeartbeat_) {
        lastHeartbeat_ = beat;
        lastBeatTime_ = now;
        return true;
    }
    return std::chrono::duration<double>(now - lastBeatTime_)
               .count()
           < stale_seconds;
}

} // namespace ps3::net
