/**
 * @file
 * Single-producer broadcast ring with per-reader cursors.
 *
 * The streaming server used to copy every published record into each
 * subscriber's private SpscPodRing — N copies per record, and the
 * publish cost grew linearly with the subscriber count. This ring
 * inverts the design: the producer publishes each record exactly
 * once into a shared fixed-size ring, and every subscriber reads
 * through its own BroadcastCursor. Slow readers never block the
 * producer; they get lapped, skip forward atomically, and account
 * the exact number of records they missed.
 *
 * Concurrency model (seqlock per slot):
 *
 *  - Each slot carries an epoch word. Publishing sequence s into
 *    slot s % capacity stores epoch 2s+1 (write in progress), the
 *    payload, then epoch 2s+2 (sequence s committed).
 *  - A reader expecting sequence s checks the epoch for 2s+2 before
 *    and after copying the payload out. A smaller epoch means the
 *    record has not been published yet; a larger one means the slot
 *    was reused for a later sequence — the reader was lapped. The
 *    copy-then-recheck makes a torn read unobservable: any overlap
 *    with a writer forces a Lapped result, never corrupt data.
 *  - Payload words are std::atomic<std::uint64_t> accessed relaxed,
 *    so the seqlock is data-race-free by the letter of the memory
 *    model (and under TSan), while compiling to plain moves.
 *
 * The ring's memory layout is position-independent plain data — no
 * pointers, no locks — so a ring created inside a shared-memory
 * segment (transport/shm_segment.hpp) can be mapped read-only by
 * another process and read with the same code. The header carries a
 * heartbeat epoch and a producer-gone flag for cross-process
 * liveness (docs/SHMEM.md).
 *
 * Cursors live in *reader* memory, not in the segment: the producer
 * cannot trust (or see) remote readers, and a local subscriber's
 * cursor is shared only between its sender thread and the producer's
 * lap-reclaim (BroadcastCursor::reclaim), which advances a stale
 * cursor with a CAS so every skipped sequence is counted exactly
 * once — either claimed for delivery or counted as dropped.
 */

#ifndef PS3_TRANSPORT_BROADCAST_RING_HPP
#define PS3_TRANSPORT_BROADCAST_RING_HPP

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>

namespace ps3::transport {

/** Outcome of BroadcastRing::readAt. */
enum class BroadcastRead
{
    Ok,     ///< record copied out intact
    NotYet, ///< sequence not published yet
    Lapped  ///< slot reused for a newer sequence; reader fell behind
};

/**
 * The shared single-producer, many-reader ring. The object *is* the
 * memory layout: construct it with create() inside a caller-provided
 * buffer (heap or shared-memory segment) and the slots follow the
 * header in the same allocation. attach() validates and reuses a
 * layout another process created.
 */
template <typename T>
class BroadcastRing
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "broadcast ring payloads are raw bytes");

  public:
    /** Payload words per slot (u64 stores/loads, zero-padded). */
    static constexpr std::size_t kPayloadWords =
        (sizeof(T) + 7) / 8;

    /** Slot stride: epoch word + payload, cache-line aligned. */
    static constexpr std::size_t kSlotStride =
        ((8 + kPayloadWords * 8) + 63) / 64 * 64;

    /**
     * Layout magic ("PS3R") and version, checked by attach().
     * Version 2: net::StreamSlot holds the wire bytes only (version
     * 1 carried the decoded record next to them).
     */
    static constexpr std::uint32_t kMagic = 0x52335350u;
    static constexpr std::uint32_t kLayoutVersion = 2;

    /** Bytes a ring of the given capacity occupies. */
    static std::size_t bytesRequired(std::size_t capacity)
    {
        return kHeaderBytes + roundCapacity(capacity) * kSlotStride;
    }

    /**
     * Placement-construct a ring in `memory` (at least
     * bytesRequired(capacity) bytes, 64-byte aligned — mmap and
     * operator new both qualify). Capacity rounds up to a power of
     * two. The caller owns the memory; the ring is trivially
     * destructible.
     */
    static BroadcastRing *create(void *memory, std::size_t bytes,
                                 std::size_t capacity)
    {
        const std::size_t cap = roundCapacity(capacity);
        if (memory == nullptr || bytes < bytesRequired(cap))
            return nullptr;
        auto *ring = new (memory) BroadcastRing();
        ring->magic_ = kMagic;
        ring->version_ = kLayoutVersion;
        ring->capacity_ = static_cast<std::uint64_t>(cap);
        ring->mask_ = static_cast<std::uint64_t>(cap - 1);
        ring->stride_ = kSlotStride;
        ring->payloadBytes_ = sizeof(T);
        for (std::size_t i = 0; i < cap; ++i) {
            auto *slot = ring->slotBase(i);
            new (slot) std::atomic<std::uint64_t>(0); // epoch
            auto *words = reinterpret_cast<
                std::atomic<std::uint64_t> *>(slot + 8);
            for (std::size_t w = 0; w < kPayloadWords; ++w)
                new (&words[w]) std::atomic<std::uint64_t>(0);
        }
        return ring;
    }

    /**
     * Map an existing ring (e.g. a shared-memory segment created by
     * another process). Returns nullptr unless the header matches
     * this template instantiation exactly.
     */
    static const BroadcastRing *attach(const void *memory,
                                       std::size_t bytes)
    {
        if (memory == nullptr || bytes < kHeaderBytes)
            return nullptr;
        const auto *ring =
            static_cast<const BroadcastRing *>(memory);
        if (ring->magic_ != kMagic
            || ring->version_ != kLayoutVersion
            || ring->stride_ != kSlotStride
            || ring->payloadBytes_ != sizeof(T)
            || ring->capacity_ == 0
            || (ring->capacity_ & (ring->capacity_ - 1)) != 0
            || bytes < kHeaderBytes + ring->capacity_ * kSlotStride)
            return nullptr;
        return ring;
    }

    /** Slots in the ring (power of two). */
    std::size_t capacity() const
    {
        return static_cast<std::size_t>(capacity_);
    }

    /** Next sequence to publish == records published so far. */
    std::uint64_t tail() const
    {
        return tail_.load(std::memory_order_acquire);
    }

    /** Oldest sequence whose slot has not been reused yet. */
    std::uint64_t oldest() const
    {
        const std::uint64_t t = tail();
        return t > capacity_ ? t - capacity_ : 0;
    }

    /** Publish one record (single producer thread). */
    void publish(const T &value)
    {
        publishPrefix(value, sizeof(T));
    }

    /**
     * Publish only the first `bytes` of `value` (a meaningful
     * prefix of T). The slot's remaining bytes keep whatever a
     * previous occupant left, so a full readAt() of such a slot
     * returns unspecified bytes past the prefix — only prefix
     * readers (wordAt() or rawAt() bounded by an in-prefix length
     * word) may look at it. For payloads ending in a
     * variable-length buffer this skips staging and storing the
     * dead suffix, which is most of the producer's work when the
     * buffer is sized for the worst case.
     */
    void publishPrefix(const T &value, std::size_t bytes)
    {
        const std::uint64_t seq =
            tail_.load(std::memory_order_relaxed);
        std::uint8_t *slot = slotBase(seq & mask_);
        auto *epoch =
            reinterpret_cast<std::atomic<std::uint64_t> *>(slot);
        auto *words = reinterpret_cast<std::atomic<std::uint64_t> *>(
            slot + 8);

        epoch->store(2 * seq + 1, std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_release);
        const std::size_t used =
            std::max<std::size_t>(std::min(bytes, sizeof(T)), 1);
        const std::size_t count =
            std::min(kPayloadWords, (used + 7) / 8);
        alignas(8) std::uint64_t staged[kPayloadWords];
        staged[count - 1] = 0; // zero the padding tail
        std::memcpy(staged, &value, used);
        for (std::size_t w = 0; w < count; ++w)
            words[w].store(staged[w], std::memory_order_relaxed);
        epoch->store(2 * seq + 2, std::memory_order_release);
        tail_.store(seq + 1, std::memory_order_release);
    }

    /** Copy sequence `seq` out; see BroadcastRead. */
    BroadcastRead readAt(std::uint64_t seq, T &out) const
    {
        const std::uint8_t *slot = slotBase(seq & mask_);
        const auto *epoch =
            reinterpret_cast<const std::atomic<std::uint64_t> *>(
                slot);
        const auto *words = reinterpret_cast<
            const std::atomic<std::uint64_t> *>(slot + 8);

        const std::uint64_t want = 2 * seq + 2;
        const std::uint64_t before =
            epoch->load(std::memory_order_acquire);
        if (before != want)
            return before < want ? BroadcastRead::NotYet
                                 : BroadcastRead::Lapped;
        alignas(8) std::uint64_t staged[kPayloadWords];
        for (std::size_t w = 0; w < kPayloadWords; ++w)
            staged[w] = words[w].load(std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_acquire);
        if (epoch->load(std::memory_order_relaxed) != want)
            return BroadcastRead::Lapped;
        std::memcpy(&out, staged, sizeof(T));
        return BroadcastRead::Ok;
    }

    /**
     * True while sequence `seq` still occupies its slot intact.
     * Validates a zero-copy read (iovecs into rawAt()) *after* the
     * bytes were consumed: if this returns true, the slot was not
     * reused at any point since it was published.
     */
    bool stillValid(std::uint64_t seq) const
    {
        const auto *epoch =
            reinterpret_cast<const std::atomic<std::uint64_t> *>(
                slotBase(seq & mask_));
        std::atomic_thread_fence(std::memory_order_acquire);
        return epoch->load(std::memory_order_acquire)
               == 2 * seq + 2;
    }

    /**
     * Raw payload bytes of sequence `seq` for scatter-gather I/O.
     * The bytes may be overwritten concurrently; callers must
     * confirm with stillValid(seq) after consuming them and discard
     * the result of the operation when it fails.
     */
    const std::uint8_t *rawAt(std::uint64_t seq) const
    {
        return slotBase(seq & mask_) + 8;
    }

    /**
     * One payload word of sequence `seq`, read atomically (relaxed).
     * The slot-aware way to peek a field (e.g. an embedded length)
     * before gathering rawAt() bytes: the payload words are atomics,
     * so a plain pointer read through rawAt() would be a data race.
     * Subject to the same stillValid() discipline as rawAt().
     */
    std::uint64_t wordAt(std::uint64_t seq, std::size_t word) const
    {
        const auto *words = reinterpret_cast<
            const std::atomic<std::uint64_t> *>(
            slotBase(seq & mask_) + 8);
        return words[word].load(std::memory_order_relaxed);
    }

    // ---- cross-process liveness (see docs/SHMEM.md) ------------

    /** Bump the liveness heartbeat (producer side, periodic). */
    void bumpHeartbeat()
    {
        heartbeat_.fetch_add(1, std::memory_order_relaxed);
    }

    /** Current heartbeat epoch (readers poll for staleness). */
    std::uint64_t heartbeat() const
    {
        return heartbeat_.load(std::memory_order_relaxed);
    }

    /** Producer announces an orderly end of stream. */
    void markProducerGone()
    {
        producerGone_.store(1, std::memory_order_release);
    }

    /** True once the producer ended the stream. */
    bool producerGone() const
    {
        return producerGone_.load(std::memory_order_acquire) != 0;
    }

  private:
    BroadcastRing() = default;

    static std::size_t roundCapacity(std::size_t capacity)
    {
        std::size_t cap = 1;
        while (cap < capacity)
            cap <<= 1;
        return cap;
    }

    std::uint8_t *slotBase(std::uint64_t index)
    {
        return reinterpret_cast<std::uint8_t *>(this) + kHeaderBytes
               + index * kSlotStride;
    }

    const std::uint8_t *slotBase(std::uint64_t index) const
    {
        return reinterpret_cast<const std::uint8_t *>(this)
               + kHeaderBytes + index * kSlotStride;
    }

    /** Header size; slots start here (cache-line aligned). */
    static constexpr std::size_t kHeaderBytes = 128;

    std::uint32_t magic_ = 0;
    std::uint32_t version_ = 0;
    std::uint64_t capacity_ = 0;
    std::uint64_t mask_ = 0;
    std::uint64_t stride_ = 0;
    std::uint64_t payloadBytes_ = 0;
    /** Producer cache line: tail + liveness. */
    alignas(64) std::atomic<std::uint64_t> tail_{0};
    std::atomic<std::uint64_t> heartbeat_{0};
    std::atomic<std::uint64_t> producerGone_{0};

    static_assert(sizeof(std::atomic<std::uint64_t>) == 8,
                  "shared layout needs lock-free 8-byte atomics");
};

/**
 * One reader's position in a BroadcastRing plus its drop account.
 * Lives in reader-side memory. The position advances by CAS from
 * two sides — the reader claiming records for delivery, and the
 * producer reclaiming the cursor of a lapped reader — so every
 * sequence is either delivered or counted dropped, exactly once:
 *
 *     delivered + dropped() == sequences passed     (when idle)
 *
 * Records the reader claimed but then found lapped (overwritten
 * between claim and copy) are the reader's to count via
 * countDropped(); the invariant above includes them.
 */
class BroadcastCursor
{
  public:
    explicit BroadcastCursor(std::uint64_t start = 0) : pos_(start)
    {
    }

    /** Next sequence this reader will claim. */
    std::uint64_t position() const
    {
        return pos_.load(std::memory_order_acquire);
    }

    /**
     * Reposition the cursor (before it is shared — registration
     * time, single-threaded). Drop accounting is preserved.
     */
    void reset(std::uint64_t pos)
    {
        pos_.store(pos, std::memory_order_relaxed);
    }

    /** Sequences skipped past this cursor (never delivered). */
    std::uint64_t dropped() const
    {
        return dropped_.load(std::memory_order_relaxed);
    }

    /** A contiguous run of claimed sequences. */
    struct Claim
    {
        std::uint64_t first = 0;
        std::size_t count = 0;
    };

    /**
     * Reader side: claim up to `max` published sequences starting
     * at the cursor. If the cursor was lapped before claiming, it
     * skips to the ring's oldest live sequence first, counting the
     * skipped records as dropped. An empty claim (count 0) means
     * the reader caught up with the producer.
     */
    template <typename T>
    Claim claim(const BroadcastRing<T> &ring, std::size_t max)
    {
        std::uint64_t first = pos_.load(std::memory_order_relaxed);
        for (;;) {
            const std::uint64_t tail = ring.tail();
            if (first >= tail)
                return {first, 0};
            const std::uint64_t oldest = ring.oldest();
            if (first < oldest) {
                // Lapped while away: skip to the oldest record that
                // still exists. CAS failure means the producer's
                // reclaim already moved us — retry from there.
                if (pos_.compare_exchange_weak(
                        first, oldest, std::memory_order_acq_rel,
                        std::memory_order_acquire))
                {
                    dropped_.fetch_add(oldest - first,
                                       std::memory_order_relaxed);
                    first = oldest;
                }
                continue;
            }
            const std::uint64_t n = std::min<std::uint64_t>(
                tail - first, static_cast<std::uint64_t>(max));
            if (pos_.compare_exchange_weak(
                    first, first + n, std::memory_order_acq_rel,
                    std::memory_order_acquire))
                return {first, static_cast<std::size_t>(n)};
        }
    }

    /**
     * Reader side: account claimed-but-lost records (the slot was
     * overwritten between claim() and the copy).
     */
    void countDropped(std::uint64_t n)
    {
        dropped_.fetch_add(n, std::memory_order_relaxed);
    }

    /**
     * Producer side: make room for `incoming` upcoming publishes.
     * If this cursor still points at sequences the next `incoming`
     * publishes will overwrite, advance it just past the overwrite
     * frontier and count the skipped records — the reader is slow
     * and those records are gone either way; counting them here
     * (not at the reader's leisure) keeps the server's aggregate
     * drop counters current even while the reader is wedged.
     *
     * @return Records dropped by this reclaim (0 if the cursor was
     *         safely ahead or the reader advanced it first).
     */
    template <typename T>
    std::uint64_t reclaim(const BroadcastRing<T> &ring,
                          std::uint64_t incoming)
    {
        const std::uint64_t tail = ring.tail();
        const std::uint64_t cap = ring.capacity();
        if (tail + incoming <= cap)
            return 0;
        const std::uint64_t limit = tail + incoming - cap;
        std::uint64_t cur = pos_.load(std::memory_order_relaxed);
        while (cur < limit) {
            if (pos_.compare_exchange_weak(
                    cur, limit, std::memory_order_acq_rel,
                    std::memory_order_acquire))
            {
                const std::uint64_t n = limit - cur;
                dropped_.fetch_add(n, std::memory_order_relaxed);
                return n;
            }
        }
        return 0;
    }

    /**
     * Producer side: would the next `incoming` publishes overwrite
     * records this cursor has not consumed? (The Block-policy
     * overflow test — the server disconnects instead of dropping.)
     */
    template <typename T>
    bool wouldLap(const BroadcastRing<T> &ring,
                  std::uint64_t incoming) const
    {
        const std::uint64_t tail = ring.tail();
        const std::uint64_t cap = ring.capacity();
        if (tail + incoming <= cap)
            return false;
        return pos_.load(std::memory_order_acquire)
               < tail + incoming - cap;
    }

  private:
    std::atomic<std::uint64_t> pos_;
    std::atomic<std::uint64_t> dropped_{0};
};

} // namespace ps3::transport

#endif // PS3_TRANSPORT_BROADCAST_RING_HPP
