#include "server.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <optional>
#include <sys/uio.h>

#include "common/errors.hpp"
#include "obs/registry.hpp"

// The zero-copy gather hands sendmsg() iovecs that point straight
// into the broadcast ring, where the producer may concurrently
// overwrite a lapped slot. Production accepts the torn bytes and
// discards the send via stillValid(); the kernel's plain read is
// outside the C++ memory model though, so under ThreadSanitizer the
// sender bounces the encoded bytes through a thread-local scratch
// arena using atomic word loads instead.
#if defined(__SANITIZE_THREAD__)
#define PS3_TSAN_BOUNCE_GATHER 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PS3_TSAN_BOUNCE_GATHER 1
#endif
#endif
#ifndef PS3_TSAN_BOUNCE_GATHER
#define PS3_TSAN_BOUNCE_GATHER 0
#endif

namespace ps3::net {

namespace {

/** Sender idle-wait slice; short so shutdown stays prompt. */
constexpr auto kIdleWait = std::chrono::milliseconds(50);

/** Streaming-server instruments (registered once). */
struct NetMetrics
{
    obs::Counter &connected = obs::Registry::global().counter(
        "ps3_net_subscribers_connected_total",
        "Subscribers accepted after a valid handshake");
    obs::Counter &rejected = obs::Registry::global().counter(
        "ps3_net_subscribers_rejected_total",
        "Connections refused during the handshake");
    obs::Counter &subscribersDropped = obs::Registry::global().counter(
        "ps3_net_subscribers_dropped_total",
        "Subscribers disconnected by the server (overflow, errors)");
    obs::Gauge &active = obs::Registry::global().gauge(
        "ps3_net_subscribers_active",
        "Subscribers currently connected");
    obs::Counter &batches = obs::Registry::global().counter(
        "ps3_net_batches_sent_total",
        "Record batches written to subscribers");
    obs::Counter &batchesCoalesced = obs::Registry::global().counter(
        "ps3_net_batches_coalesced_total",
        "Batch frames that shared a gather syscall with a "
        "preceding frame");
    obs::Counter &bytes = obs::Registry::global().counter(
        "ps3_net_bytes_sent_total",
        "Stream bytes written to subscribers (framing included)");
    obs::Counter &recordsDropped = obs::Registry::global().counter(
        "ps3_net_records_dropped_total",
        "Records lost to broadcast-ring laps across all subscribers");
    obs::Counter &markerRequests = obs::Registry::global().counter(
        "ps3_net_marker_requests_total",
        "Upstream marker requests received from subscribers");
    obs::Gauge &queueDepth = obs::Registry::global().gauge(
        "ps3_net_queue_depth",
        "Deepest subscriber lag behind the ring tail at the last "
        "bookkeeping pass (records)");
    obs::Histogram &sendStallNs = obs::Registry::global().histogram(
        "ps3_net_send_stall_ns",
        "Per-batch socket write latency in sender threads (ns)");
    obs::Counter &heartbeats = obs::Registry::global().counter(
        "ps3_net_heartbeats_sent_total",
        "Heartbeat frames sent to idle v1.1 subscribers");
    obs::Counter &writeTimeouts = obs::Registry::global().counter(
        "ps3_net_write_timeouts_total",
        "Subscribers disconnected because a socket write timed out");
    obs::Counter &tierSubscribers = obs::Registry::global().counter(
        "ps3_net_tier_subscribers_total",
        "Subscribers accepted on a reduced-rate tier (v1.2)");
    obs::Counter &tierBuckets = obs::Registry::global().counter(
        "ps3_net_tier_buckets_sent_total",
        "Aggregate bucket records sent to tiered subscribers");
    obs::Counter &tierChanges = obs::Registry::global().counter(
        "ps3_net_tier_changes_total",
        "Accepted mid-stream tier renegotiation requests");
};

NetMetrics &
netMetrics()
{
    static NetMetrics metrics;
    return metrics;
}

host::DumpRecord
recordFromSample(const host::Sample &sample)
{
    host::DumpRecord record;
    record.time = sample.time;
    record.voltage = sample.voltage;
    record.current = sample.current;
    for (unsigned pair = 0; pair < host::kMaxPairs; ++pair) {
        if (sample.present[pair])
            record.presentMask |=
                static_cast<std::uint8_t>(1u << pair);
    }
    record.marker = sample.marker;
    record.markerChar = sample.markerChar;
    return record;
}

} // namespace

Ps3Server::Ps3Server(host::Sensor &sensor, Options options)
    : options_(options),
      sensor_(&sensor),
      config_(sensor.config()),
      firmwareVersion_(sensor.firmwareVersion())
{
    ringSegment_ = transport::ShmSegment::create(
        StreamRing::bytesRequired(options_.queueCapacity),
        "ps3d-stream");
    ring_ = StreamRing::create(ringSegment_.data(),
                               ringSegment_.size(),
                               options_.queueCapacity);
    listenerToken_ = sensor.addSampleListener(
        [this](const host::Sample &sample) {
            publish(recordFromSample(sample));
        });
}

Ps3Server::Ps3Server(host::Sensor &sensor)
    : Ps3Server(sensor, Options{})
{
}

Ps3Server::Ps3Server(const firmware::DeviceConfig &config,
                     std::string firmware_version, Options options)
    : options_(options),
      sensor_(nullptr),
      config_(config),
      firmwareVersion_(std::move(firmware_version))
{
    ringSegment_ = transport::ShmSegment::create(
        StreamRing::bytesRequired(options_.queueCapacity),
        "ps3d-stream");
    ring_ = StreamRing::create(ringSegment_.data(),
                               ringSegment_.size(),
                               options_.queueCapacity);
}

Ps3Server::Ps3Server(const firmware::DeviceConfig &config,
                     std::string firmware_version)
    : Ps3Server(config, std::move(firmware_version), Options{})
{
}

Ps3Server::~Ps3Server()
{
    stop();
}

transport::Endpoint
Ps3Server::listen(const transport::Endpoint &endpoint)
{
    if (stopped_.load(std::memory_order_acquire))
        throw UsageError("Ps3Server: listen() after stop()");
    auto listener =
        std::make_unique<transport::SocketListener>(endpoint);
    const transport::Endpoint bound = listener->boundEndpoint();
    const bool shm = endpoint.kind == transport::Endpoint::Kind::Shm;
    std::lock_guard<std::mutex> lock(listenersMutex_);
    ListenerSlot slot;
    slot.listener = std::move(listener);
    transport::SocketListener *raw = slot.listener.get();
    slot.thread =
        std::thread([this, raw, shm] { acceptLoop(*raw, shm); });
    listeners_.push_back(std::move(slot));
    return bound;
}

void
Ps3Server::acceptLoop(transport::SocketListener &listener, bool shm)
{
    while (!stopped_.load(std::memory_order_acquire)) {
        auto socket = listener.accept(0.2);
        // The ring heartbeat doubles as cross-process liveness for
        // shm subscribers; the 0.2 s accept timeout paces it.
        ring_->bumpHeartbeat();
        if (listener.interrupted())
            return;
        reapFinished();
        if (!socket)
            continue;
        ClientHello hello;
        if (!handshake(*socket, hello, shm))
            continue; // per-connection rejection; keep accepting
        auto subscriber = std::make_unique<Subscriber>();
        subscriber->socket = std::move(socket);
        subscriber->overflow = hello.overflow;
        subscriber->shm = shm;
        subscriber->minor = std::min(hello.minor, kProtocolMinor);
        // A tier request only means something when both sides speak
        // v1.2 — and a shm stream is the raw ring by construction.
        subscriber->tier = (!shm && subscriber->minor >= 2)
                               ? hello.tier
                               : host::Tier::Raw;
        if (subscriber->tier != host::Tier::Raw)
            netMetrics().tierSubscribers.inc();
        if (options_.writeTimeout > 0.0)
            subscriber->socket->setWriteTimeout(
                options_.writeTimeout);
        Subscriber *raw = subscriber.get();
        {
            std::lock_guard<std::mutex> lock(subscribersMutex_);
            subscriber->id = nextSubscriberId_++;
            // The first record this subscriber can see is the next
            // one published; heartbeats before any batch carry it.
            subscriber->nextSeq = ring_->tail();
            subscriber->cursor.reset(subscriber->nextSeq);
            subscribers_.push_back(std::move(subscriber));
        }
        // Started after insertion: a publish() racing the start is
        // simply already in the ring when the first claim runs.
        raw->thread = std::thread([this, raw] {
            if (raw->shm)
                shmMonitorLoop(*raw);
            else
                senderLoop(*raw);
        });
        netMetrics().connected.inc();
        netMetrics().active.add();
    }
}

bool
Ps3Server::handshake(transport::SocketDevice &socket,
                     ClientHello &hello, bool shm)
{
    std::uint8_t raw[kClientHelloSize];
    std::size_t got = 0;
    const auto deadline =
        std::chrono::steady_clock::now()
        + std::chrono::duration_cast<
              std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(
                  options_.handshakeTimeout));
    while (got < kClientHelloSize) {
        const std::size_t n =
            socket.read(raw + got, sizeof(raw) - got, 0.05);
        got += n;
        if (n == 0
            && (socket.closed()
                || std::chrono::steady_clock::now() > deadline))
            break;
    }

    HelloStatus reject = HelloStatus::BadHello;
    auto decoded = ClientHello::decode(raw, got, reject);
    if (decoded && subscriberCount() >= options_.maxSubscribers) {
        decoded.reset();
        reject = HelloStatus::ServerFull;
    }
    if (!decoded) {
        netMetrics().rejected.inc();
        ServerHello nack;
        nack.status = reject;
        try {
            const auto bytes = nack.encode();
            socket.write(bytes.data(), bytes.size());
        } catch (const DeviceError &) {
            // The peer is already gone; nothing to tell it.
        }
        return false;
    }

    hello = *decoded;
    ServerHello ack;
    ack.sampleRateHz = firmware::kSampleRateHz;
    ack.firmwareVersion = firmwareVersion_;
    ack.config = config_;
    ack.tier = (!shm && std::min(hello.minor, kProtocolMinor) >= 2)
                   ? hello.tier
                   : host::Tier::Raw;
    try {
        const auto bytes = ack.encode();
        socket.write(bytes.data(), bytes.size());
    } catch (const DeviceError &) {
        return false;
    }
    return true;
}

void
Ps3Server::publish(const host::DumpRecord &record)
{
    if (stopped_.load(std::memory_order_acquire))
        return;
    StreamSlot slot;
    slot.encodedLen = encodeRecordTo(slot.encoded, record);
    if (publishCountdown_ == 0) {
        overflowPass();
        publishCountdown_ = kReclaimInterval;
    }
    --publishCountdown_;
    // Only the used prefix of the slot goes into the ring: the
    // length word and encodedLen wire bytes — not the worst-case
    // remainder of the encode buffer.
    ring_->publishPrefix(slot, kSlotEncodedOffset + slot.encodedLen);
    // Wake idle senders. The seq_cst fence pairs with the one in
    // waitForRecords: a waiter that missed this publish is visible
    // in waiters_, and the empty lock below cannot be taken while
    // it sits between its predicate check and the actual wait.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_relaxed) > 0) {
        {
            std::lock_guard<std::mutex> lock(waitMutex_);
        }
        publishCv_.notify_all();
    }
}

void
Ps3Server::overflowPass()
{
    std::lock_guard<std::mutex> lock(subscribersMutex_);
    const std::uint64_t tail = ring_->tail();
    std::int64_t max_lag = 0;
    for (auto &subscriber : subscribers_) {
        if (subscriber->shm
            || subscriber->done.load(std::memory_order_acquire))
            continue;
        if (subscriber->overflow
            == transport::RingOverflow::DropOldest) {
            // Move a lapped cursor past the overwrite frontier of
            // the next kReclaimInterval publishes; the skipped
            // records are counted here, not at the reader's leisure.
            subscriber->cursor.reclaim(*ring_, kReclaimInterval);
            publishDrops(*subscriber);
        } else if (!subscriber->kicked.load(
                       std::memory_order_relaxed)
                   && subscriber->cursor.wouldLap(*ring_,
                                                  kReclaimInterval))
        {
            // A Block subscriber fell a whole ring behind. Its
            // policy promised losslessness, so instead of silently
            // dropping — or stalling the device reader — the server
            // disconnects it; the record it is about to miss is
            // counted.
            subscriber->kicked.store(true,
                                     std::memory_order_release);
            subscriber->socket->abort();
            recordsDropped_.fetch_add(1, std::memory_order_relaxed);
            subscribersDropped_.fetch_add(
                1, std::memory_order_relaxed);
            netMetrics().recordsDropped.inc();
            netMetrics().subscribersDropped.inc();
        }
        max_lag = std::max(
            max_lag, static_cast<std::int64_t>(
                         tail - subscriber->cursor.position()));
    }
    netMetrics().queueDepth.set(max_lag);
}

void
Ps3Server::publishDrops(Subscriber &subscriber)
{
    const std::uint64_t drops = subscriber.cursor.dropped();
    if (drops == subscriber.publishedDrops)
        return;
    const std::uint64_t delta = drops - subscriber.publishedDrops;
    subscriber.publishedDrops = drops;
    recordsDropped_.fetch_add(delta, std::memory_order_relaxed);
    netMetrics().recordsDropped.inc(delta);
}

void
Ps3Server::waitForRecords(Subscriber &subscriber)
{
    // On a busy stream the producer is a yield away; spinning here
    // keeps the hot path off the condition variable (and off the
    // producer's notify).
    for (int i = 0; i < 32; ++i) {
        if (ring_->tail() > subscriber.cursor.position()
            || draining_.load(std::memory_order_acquire)
            || subscriber.kicked.load(std::memory_order_acquire))
            return;
        std::this_thread::yield();
    }
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    {
        std::unique_lock<std::mutex> lock(waitMutex_);
        publishCv_.wait_for(lock, kIdleWait, [&] {
            return ring_->tail() > subscriber.cursor.position()
                   || draining_.load(std::memory_order_acquire)
                   || subscriber.kicked.load(
                       std::memory_order_acquire);
        });
    }
    waiters_.fetch_sub(1, std::memory_order_relaxed);
}

void
Ps3Server::finishSubscriber(Subscriber &subscriber)
{
    subscriber.done.store(true, std::memory_order_release);
    {
        // Empty lock: stop() cannot evaluate its drain predicate
        // between the store above and this notify.
        std::lock_guard<std::mutex> lock(subscribersMutex_);
    }
    doneCv_.notify_all();
    netMetrics().active.sub();
}

void
Ps3Server::senderLoop(Subscriber &subscriber)
{
    const std::size_t max_batch =
        std::max<std::size_t>(options_.batchRecords, 1);
    const bool versioned = subscriber.minor >= 1;
    const std::size_t header_bytes = versioned ? 12u : 4u;

    // Raw-path gather state: stable header blobs (length prefix +
    // firstSeq) and an iovec per header/record. Sized once — the
    // iovecs point straight into the ring, so the only per-batch
    // bytes built here are the headers.
    std::vector<std::array<std::uint8_t, 12>> headers(max_batch);
    std::vector<struct iovec> iov(2 * max_batch);
#if PS3_TSAN_BOUNCE_GATHER
    constexpr std::size_t kScratchWords =
        (kMaxEncodedRecordBytes + 7) / 8;
    std::vector<std::uint64_t> scratch(max_batch * kScratchWords);
#endif

    // Tier-path state: records copied out of the ring for folding.
    std::vector<SeqRecord> batch(max_batch);
    std::vector<std::uint8_t> frame;

    bool graceful = false;
    bool torn = false;

    // Tiered-stream state. Everything here is sender-thread-local:
    // pollUpstream runs on this very thread, so renegotiation is a
    // plain variable swap.
    std::optional<host::TierAccumulator> accumulator;
    if (subscriber.tier != host::Tier::Raw)
        accumulator.emplace(subscriber.tier, firmware::kSampleRateHz);
    std::uint64_t openFirstSeq = 0; ///< seq of open bucket's first
    std::uint64_t nextFoldSeq = 0;  ///< seq the next fold expects
    bool haveFolded = false;

    auto beginFrame = [&](std::uint64_t first_seq) {
        frame.clear();
        frame.resize(4); // length prefix patched below
        if (versioned)
            appendU64(frame, first_seq);
    };

    auto writeFrame = [&] {
        const std::uint32_t payload =
            static_cast<std::uint32_t>(frame.size() - 4);
        frame[0] = static_cast<std::uint8_t>(payload & 0xFF);
        frame[1] = static_cast<std::uint8_t>((payload >> 8) & 0xFF);
        frame[2] = static_cast<std::uint8_t>((payload >> 16) & 0xFF);
        frame[3] = static_cast<std::uint8_t>((payload >> 24) & 0xFF);
        {
            obs::ScopedTimer timer(netMetrics().sendStallNs);
            subscriber.socket->write(frame.data(), frame.size());
        }
        netMetrics().batches.inc();
        netMetrics().bytes.inc(frame.size());
    };

    // Closed buckets batch into a shared aggregate frame — the
    // frame's firstSeq covers the run because consecutive buckets
    // are seq-contiguous (holes and markers force a frame break).
    // Shipping one bucket per frame would hand a third of the
    // bandwidth the tier just saved back to framing overhead.
    bool aggregateOpen = false;
    auto appendBucket = [&](const host::HistoryBucket &bucket,
                            std::uint64_t first_seq) {
        if (!aggregateOpen) {
            beginFrame(first_seq);
            aggregateOpen = true;
        }
        encodeBucket(frame, subscriber.tier, bucket);
        tierBucketsSent_.fetch_add(1, std::memory_order_relaxed);
        netMetrics().tierBuckets.inc();
    };
    auto shipAggregate = [&] {
        if (!aggregateOpen)
            return;
        aggregateOpen = false;
        writeFrame();
    };

    // Flush the open bucket early (marker, hole, renegotiation,
    // shutdown); its sample count marks it partial.
    auto flushOpen = [&] {
        host::HistoryBucket closed;
        if (accumulator && accumulator->flush(closed))
            appendBucket(closed, openFirstSeq);
    };

    auto applyTierChange = [&] {
        if (!subscriber.tierChangePending)
            return;
        subscriber.tierChangePending = false;
        const auto next =
            static_cast<host::Tier>(subscriber.pendingTier);
        if (next == subscriber.tier)
            return;
        flushOpen();
        shipAggregate();
        if (haveFolded)
            subscriber.nextSeq = nextFoldSeq;
        subscriber.tier = next;
        if (next == host::Tier::Raw)
            accumulator.reset();
        else
            accumulator.emplace(next, firmware::kSampleRateHz);
    };

    auto sendHeartbeat = [&] {
        const auto beat = encodeHeartbeat(subscriber.nextSeq);
        subscriber.socket->write(beat.data(), beat.size());
        heartbeatsSent_.fetch_add(1, std::memory_order_relaxed);
        netMetrics().heartbeats.inc();
        netMetrics().bytes.inc(beat.size());
    };

    auto last_activity = std::chrono::steady_clock::now();
    try {
        for (;;) {
            applyTierChange();
            if (subscriber.kicked.load(std::memory_order_acquire))
                break;
            const auto claim =
                subscriber.cursor.claim(*ring_, max_batch);
            if (claim.count == 0) {
                // The stream went quiet: ship any batched buckets
                // now — both to bound latency and because the
                // heartbeat below announces a nextSeq the client
                // can only account for once it has them.
                shipAggregate();
                if (draining_.load(std::memory_order_acquire)
                    && claim.first >= ring_->tail()) {
                    graceful = true;
                    break;
                }
                if (subscriber.socket->closed())
                    break;
                if (versioned && options_.heartbeatInterval > 0.0) {
                    const auto now = std::chrono::steady_clock::now();
                    if (std::chrono::duration<double>(
                            now - last_activity)
                            .count()
                        >= options_.heartbeatInterval) {
                        sendHeartbeat();
                        last_activity = now;
                    }
                }
                pollUpstream(subscriber);
                waitForRecords(subscriber);
                continue;
            }
            if (accumulator) {
                // Tiered stream: copy the claimed records out of the
                // ring (the fold needs decoded samples), fold them,
                // ship closed buckets. Markers bypass aggregation; a
                // hole (lap) or a marker flushes the open bucket
                // first so every frame's firstSeq stays monotonic
                // and gaps surface exactly.
                std::size_t n = 0;
                for (std::size_t i = 0; i < claim.count; ++i) {
                    const std::uint64_t seq = claim.first + i;
                    if (readSlot(*ring_, seq, batch[n].record)
                        == SlotRead::Ok) {
                        batch[n].seq = seq;
                        ++n;
                    } else {
                        // Overwritten between claim and copy, or
                        // undecodable: the reader's to count.
                        subscriber.cursor.countDropped(1);
                    }
                }
                for (std::size_t i = 0; i < n; ++i) {
                    const SeqRecord &sr = batch[i];
                    if (haveFolded
                        && accumulator->openSamples() > 0
                        && sr.seq != nextFoldSeq) {
                        flushOpen();
                        shipAggregate(); // seq hole: frame break
                    }
                    if (sr.record.marker) {
                        flushOpen();
                        shipAggregate(); // marker rides its own frame
                        beginFrame(sr.seq);
                        encodeRecord(frame, sr.record);
                        writeFrame();
                        subscriber.nextSeq = sr.seq + 1;
                    } else {
                        if (accumulator->openSamples() == 0)
                            openFirstSeq = sr.seq;
                        const std::uint64_t closed_first =
                            openFirstSeq;
                        host::HistoryBucket closed;
                        if (accumulator->fold(sr.record.time,
                                              sr.record.presentMask,
                                              sr.record.voltage,
                                              sr.record.current,
                                              closed)) {
                            appendBucket(closed, closed_first);
                            if (frame.size() >= 4096)
                                shipAggregate();
                            openFirstSeq = sr.seq;
                        }
                        // Heartbeats must announce the first seq the
                        // client has not yet accounted for — the open
                        // bucket's start while one is pending.
                        subscriber.nextSeq =
                            accumulator->openSamples() > 0
                                ? openFirstSeq
                                : sr.seq + 1;
                    }
                    nextFoldSeq = sr.seq + 1;
                    haveFolded = true;
                }
                // One frame per claimed run: don't let closed
                // buckets wait out the next idle poll.
                shipAggregate();
            } else {
                // Raw stream, zero-copy: gather the in-ring encoded
                // bytes of every still-live claimed record into
                // length-prefixed frames and ship them all in one
                // writev-style call. A stale record (overwritten
                // between claim and gather) is counted dropped and
                // forces a frame break, so each frame's firstSeq
                // stays exact. (For v1.0 subscribers the frames
                // simply concatenate.)
                std::size_t n_iov = 0;
                std::size_t n_frames = 0;
                std::size_t header_slot = 0;
                std::uint32_t frame_payload = 0;
                bool frame_open = false;
                std::uint64_t first_included = 0;
                bool have_included = false;
                std::size_t total_bytes = 0;

                auto closeFrame = [&] {
                    if (!frame_open)
                        return;
                    auto &hdr = headers[n_frames];
                    const std::uint32_t payload =
                        frame_payload + (versioned ? 8u : 0u);
                    hdr[0] = static_cast<std::uint8_t>(payload
                                                       & 0xFF);
                    hdr[1] = static_cast<std::uint8_t>(
                        (payload >> 8) & 0xFF);
                    hdr[2] = static_cast<std::uint8_t>(
                        (payload >> 16) & 0xFF);
                    hdr[3] = static_cast<std::uint8_t>(
                        (payload >> 24) & 0xFF);
                    iov[header_slot].iov_base = hdr.data();
                    iov[header_slot].iov_len = header_bytes;
                    total_bytes += header_bytes;
                    frame_open = false;
                    ++n_frames;
                };
                auto openFrame = [&](std::uint64_t seq) {
                    auto &hdr = headers[n_frames];
                    if (versioned) {
                        std::uint64_t v = seq;
                        for (unsigned b = 0; b < 8; ++b) {
                            hdr[4 + b] = static_cast<std::uint8_t>(
                                v & 0xFF);
                            v >>= 8;
                        }
                    }
                    header_slot = n_iov++; // patched by closeFrame
                    frame_payload = 0;
                    frame_open = true;
                };

                for (std::size_t i = 0; i < claim.count; ++i) {
                    const std::uint64_t seq = claim.first + i;
                    const std::uint64_t len =
                        ring_->wordAt(seq, kSlotLenWord);
                    if (len < kMinEncodedRecordBytes
                        || len > kMaxEncodedRecordBytes
                        || !ring_->stillValid(seq)) {
                        subscriber.cursor.countDropped(1);
                        closeFrame();
                        continue;
                    }
#if PS3_TSAN_BOUNCE_GATHER
                    // Copy-then-validate: a record overwritten during
                    // the copy is dropped here instead of tearing the
                    // stream, so the post-send torn check is moot.
                    std::uint64_t *bounce =
                        scratch.data() + i * kScratchWords;
                    for (std::size_t w = 0; w < (len + 7) / 8; ++w)
                        bounce[w] = ring_->wordAt(
                            seq, kSlotEncodedOffset / 8 + w);
                    if (!ring_->stillValid(seq)) {
                        subscriber.cursor.countDropped(1);
                        closeFrame();
                        continue;
                    }
#endif
                    if (!frame_open)
                        openFrame(seq);
#if PS3_TSAN_BOUNCE_GATHER
                    iov[n_iov].iov_base = bounce;
#else
                    iov[n_iov].iov_base =
                        const_cast<std::uint8_t *>(
                            ring_->rawAt(seq) + kSlotEncodedOffset);
#endif
                    iov[n_iov].iov_len =
                        static_cast<std::size_t>(len);
                    ++n_iov;
                    frame_payload +=
                        static_cast<std::uint32_t>(len);
                    total_bytes += static_cast<std::size_t>(len);
                    if (!have_included) {
                        have_included = true;
                        first_included = seq;
                    }
                }
                closeFrame();
                subscriber.nextSeq = claim.first + claim.count;
                if (n_frames == 0)
                    continue; // the whole claim went stale
                {
                    obs::ScopedTimer timer(
                        netMetrics().sendStallNs);
                    subscriber.socket->writeGather(iov.data(),
                                                   n_iov);
                }
                // The ring overwrites in sequence order, so the
                // oldest gathered record vouches for all of them.
                // If its slot was reused mid-send, torn bytes may
                // already be on the wire — the stream is
                // unrecoverable.
                if (!PS3_TSAN_BOUNCE_GATHER
                    && !ring_->stillValid(first_included)) {
                    torn = true;
                    break;
                }
                netMetrics().batches.inc(n_frames);
                if (n_frames > 1) {
                    batchesCoalesced_.fetch_add(
                        n_frames - 1, std::memory_order_relaxed);
                    netMetrics().batchesCoalesced.inc(n_frames - 1);
                }
                netMetrics().bytes.inc(total_bytes);
            }
            last_activity = std::chrono::steady_clock::now();
            pollUpstream(subscriber);
        }
        if (graceful && !subscriber.socket->closed()) {
            // Flush a partial bucket so a tiered client sees every
            // folded sample, then the final heartbeat (v1.1) pins
            // the stream's end sequence so a hole between the last
            // sent batch and shutdown is still accountable. Then the
            // zero-length end-of-stream batch, then close.
            flushOpen();
            shipAggregate();
            if (accumulator && haveFolded)
                subscriber.nextSeq = nextFoldSeq;
            if (versioned)
                sendHeartbeat();
            const std::uint8_t eos[4] = {0, 0, 0, 0};
            subscriber.socket->write(eos, sizeof(eos));
        }
    } catch (const DeviceError &) {
        // Connection died (or was aborted); fall through — the done
        // flag stops the bookkeeping pass from touching us.
        if (subscriber.socket->writeTimedOut()) {
            writeTimeouts_.fetch_add(1, std::memory_order_relaxed);
            subscribersDropped_.fetch_add(
                1, std::memory_order_relaxed);
            netMetrics().writeTimeouts.inc();
            netMetrics().subscribersDropped.inc();
        }
    }
    if (torn) {
        subscriber.socket->abort();
        subscribersDropped_.fetch_add(1, std::memory_order_relaxed);
        netMetrics().subscribersDropped.inc();
    }
    finishSubscriber(subscriber);
}

void
Ps3Server::shmMonitorLoop(Subscriber &subscriber)
{
    try {
        // The handover itself: ShmInfo frame + segment descriptor
        // over the control socket. From here on the subscriber
        // reads the ring directly; this thread only services
        // upstream requests and holds the death-detection socket.
        sendShmHandover(*subscriber.socket, ringSegment_);
        while (!subscriber.kicked.load(std::memory_order_acquire)
               && !draining_.load(std::memory_order_acquire)) {
            pollUpstream(subscriber, 0.1);
            if (subscriber.socket->closed())
                break;
        }
        // On drain the producer-gone flag in the ring tells the
        // subscriber the stream ended; nothing to send here.
    } catch (const DeviceError &) {
        // Peer gone; the reaper collects us.
    }
    finishSubscriber(subscriber);
}

void
Ps3Server::pollUpstream(Subscriber &subscriber,
                        double first_timeout)
{
    std::uint8_t buffer[64];
    double timeout = first_timeout;
    for (;;) {
        const std::size_t got =
            subscriber.socket->read(buffer, sizeof(buffer), timeout);
        timeout = 0.0;
        if (got == 0)
            return;
        for (std::size_t i = 0; i < got; ++i) {
            if (subscriber.pendingRequestLen == 0
                && buffer[i] != kMarkerRequest
                && !(buffer[i] == kTierRequest
                     && subscriber.minor >= 2 && !subscriber.shm))
                continue; // resync: skip unknown bytes
            subscriber.pendingRequest[subscriber.pendingRequestLen++] =
                buffer[i];
            if (subscriber.pendingRequestLen < 2)
                continue;
            subscriber.pendingRequestLen = 0;
            if (subscriber.pendingRequest[0] == kTierRequest) {
                const std::uint8_t tier_byte =
                    subscriber.pendingRequest[1];
                if (tier_byte > host::kMaxTierValue)
                    continue; // ignore nonsense, keep streaming
                // Applied by the sender loop — which is this very
                // thread — at its next iteration.
                subscriber.pendingTier = tier_byte;
                subscriber.tierChangePending = true;
                tierChanges_.fetch_add(1,
                                       std::memory_order_relaxed);
                netMetrics().tierChanges.inc();
                continue;
            }
            markerRequests_.fetch_add(1, std::memory_order_relaxed);
            netMetrics().markerRequests.inc();
            if (sensor_) {
                std::lock_guard<std::mutex> lock(markMutex_);
                sensor_->mark(
                    static_cast<char>(subscriber.pendingRequest[1]));
            }
        }
    }
}

std::size_t
Ps3Server::subscriberCount() const
{
    std::lock_guard<std::mutex> lock(subscribersMutex_);
    std::size_t count = 0;
    for (const auto &subscriber : subscribers_) {
        if (!subscriber->done.load(std::memory_order_acquire))
            ++count;
    }
    return count;
}

std::uint64_t
Ps3Server::recordsDropped() const
{
    // The bookkeeping pass is periodic, so live cursors may hold
    // unpublished drop deltas; flush them here so the answer — and
    // the ps3_net_records_dropped_total counter, which moves in
    // lockstep — is exact at every observation point:
    //     delivered + recordsDropped() == published   (when idle)
    auto *self = const_cast<Ps3Server *>(this);
    std::lock_guard<std::mutex> lock(subscribersMutex_);
    for (const auto &subscriber : subscribers_)
        self->publishDrops(*subscriber);
    return recordsDropped_.load(std::memory_order_relaxed);
}

std::uint64_t
Ps3Server::subscribersDropped() const
{
    return subscribersDropped_.load(std::memory_order_relaxed);
}

std::uint64_t
Ps3Server::markerRequests() const
{
    return markerRequests_.load(std::memory_order_relaxed);
}

std::uint64_t
Ps3Server::heartbeatsSent() const
{
    return heartbeatsSent_.load(std::memory_order_relaxed);
}

std::uint64_t
Ps3Server::writeTimeouts() const
{
    return writeTimeouts_.load(std::memory_order_relaxed);
}

std::uint64_t
Ps3Server::tierBucketsSent() const
{
    return tierBucketsSent_.load(std::memory_order_relaxed);
}

std::uint64_t
Ps3Server::tierChanges() const
{
    return tierChanges_.load(std::memory_order_relaxed);
}

std::uint64_t
Ps3Server::batchesCoalesced() const
{
    return batchesCoalesced_.load(std::memory_order_relaxed);
}

void
Ps3Server::reapFinished()
{
    std::vector<std::unique_ptr<Subscriber>> finished;
    {
        std::lock_guard<std::mutex> lock(subscribersMutex_);
        auto it = subscribers_.begin();
        while (it != subscribers_.end()) {
            if ((*it)->done.load(std::memory_order_acquire)) {
                // Final drop accounting before the cursor goes away.
                publishDrops(**it);
                finished.push_back(std::move(*it));
                it = subscribers_.erase(it);
            } else {
                ++it;
            }
        }
    }
    // Join outside the lock so publish() is never blocked on it.
    for (auto &subscriber : finished) {
        if (subscriber->thread.joinable())
            subscriber->thread.join();
    }
}

void
Ps3Server::stop()
{
    std::lock_guard<std::mutex> stop_lock(stopMutex_);
    if (stopped_.exchange(true, std::memory_order_acq_rel))
        return;

    // 1. No new records: detach from the sensor.
    if (sensor_ && listenerToken_ != 0)
        sensor_->removeSampleListener(listenerToken_);

    // 2. No new subscribers: interrupt and join the accept threads
    //    (after this no thread mutates subscribers_ but us).
    {
        std::lock_guard<std::mutex> lock(listenersMutex_);
        for (auto &slot : listeners_)
            slot.listener->interrupt();
    }
    for (auto &slot : listeners_) {
        if (slot.thread.joinable())
            slot.thread.join();
    }

    // 3. Drain-then-close: mark the stream ended (ring flag for shm
    //    subscribers, draining_ for senders), wake every idle
    //    sender, and wait on the condition variable until each one
    //    has flushed its tail and sent end-of-stream — no
    //    sleep-polling, stop() returns the moment the last sender
    //    finishes.
    if (ring_)
        ring_->markProducerGone();
    draining_.store(true, std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(waitMutex_);
    }
    publishCv_.notify_all();
    const auto deadline =
        std::chrono::steady_clock::now()
        + std::chrono::duration_cast<
              std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(options_.drainTimeout));
    {
        std::unique_lock<std::mutex> lock(subscribersMutex_);
        doneCv_.wait_until(lock, deadline, [&] {
            for (const auto &subscriber : subscribers_) {
                if (!subscriber->done.load(
                        std::memory_order_acquire))
                    return false;
            }
            return true;
        });
    }

    // 4. Abort stragglers (senders wedged in write() against a
    //    stalled peer) and join everything.
    std::vector<std::unique_ptr<Subscriber>> all;
    {
        std::lock_guard<std::mutex> lock(subscribersMutex_);
        for (auto &subscriber : subscribers_) {
            publishDrops(*subscriber);
            if (!subscriber->done.load(std::memory_order_acquire))
                subscriber->socket->abort();
        }
        all.swap(subscribers_);
    }
    for (auto &subscriber : all) {
        if (subscriber->thread.joinable())
            subscriber->thread.join();
    }

    std::lock_guard<std::mutex> lock(listenersMutex_);
    listeners_.clear();
}

} // namespace ps3::net
