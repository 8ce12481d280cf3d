/**
 * @file
 * Workload `fleet-fanout`: six publish-driven registry sensors, fed
 * in closed-loop rounds by one generator thread (kRoundTicks 20 kHz
 * ticks of every sensor, published at once, then a wait until the raw
 * connection has decoded them all), served by a FleetServer over a
 * unix socket to two v2 connections: one raw subscription to all
 * six, one subscription to all six at Tier::Hz1000. The server loop
 * and the client decode do most of the work; the parser and the
 * firmware do none. Records carry one pair, the smallest size, where
 * per-record cost dominates.
 */
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <memory>
#include <sstream>
#include <thread>

#include "net/fleet_client.hpp"
#include "net/fleet_server.hpp"
#include "net/registry.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

using namespace ps3;

constexpr std::uint16_t kSensors = 6;
/**
 * Ticks of every sensor per round: 72 000 records, tens of ms of
 * work, so the handful of thread wakeups a round needs stay a small
 * part of it. A multiple of 20, so every round ends on a whole 1 kHz
 * bucket. The generator waits only for the raw connection; a ring
 * over five rounds deep leaves the tier connection that much slack
 * before it could be lapped.
 */
constexpr std::int64_t kRoundTicks = 12000;
constexpr std::size_t kRingRecords = 1u << 16;
constexpr std::size_t kStampRing = 1u << 16;
constexpr double kRate = 20000.0;
constexpr double kDrainSeconds = 5.0;

/** The seeded record of (sensor, tick). */
host::DumpRecord
fleetRecord(std::uint64_t seed, std::uint16_t sensor, std::int64_t tick)
{
    const std::uint64_t h =
        mix64(mix64(seed) ^ (static_cast<std::uint64_t>(sensor) << 56)
              ^ static_cast<std::uint64_t>(tick));
    host::DumpRecord r;
    r.time = fleetTimeOfTick(tick);
    r.presentMask = 0x01;
    r.voltage[0] = 11.5 + static_cast<double>(h & 0xFFFF) / 65536.0;
    r.current[0] =
        0.5 + static_cast<double>((h >> 16) & 0xFFFF) / 4096.0;
    return r;
}

/** Per-connection consumer state, owned by its polling thread. */
struct Side
{
    explicit Side(std::int64_t window_end_ns)
        : netLatencyUs(kWarmupNs, window_end_ns, kSliceNs)
    {
    }

    std::unique_ptr<net::FleetClient> client;
    std::atomic<std::uint64_t> records{0};
    std::uint64_t perSensor[kSensors] = {};
    std::uint64_t gap[kSensors] = {};
    std::int64_t expectNext[kSensors] = {};
    bool ended[kSensors] = {};
    bool closed = false;
    std::uint64_t mismatches = 0;
    std::string firstProblem;
    /** Publish -> decoded per record (traced runs), keyed by decode
     *  time since the schedule start. */
    SliceSeries netLatencyUs;

    void
    problem(const std::string &what)
    {
        ++mismatches;
        if (firstProblem.empty())
            firstProblem = what;
    }

    bool
    allEnded() const
    {
        if (closed)
            return true;
        for (bool e : ended) {
            if (!e)
                return false;
        }
        return true;
    }
};

struct Session
{
    Session(const RunSpec &spec, int trial);
    ~Session();
    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    void pollRaw(double timeout);
    void onRaw(const net::FleetClient::Event &event, std::int64_t now);
    void onTier(const net::FleetClient::Event &event);
    void stopGenerator();
    bool drain();
    void finish();

    std::int64_t
    start() const
    {
        return scheduleStart.load(std::memory_order_relaxed);
    }

    const std::uint64_t seed;
    const bool traced;
    /** Window end relative to the schedule start (whole slices). */
    const std::int64_t windowEndRel;
    std::string socketPath;
    std::atomic<std::int64_t> scheduleStart{0};

    Side raw;
    Side tier;
    /** Round durations as measured and at reference speed, keyed by
     *  round start since the schedule start; written by the generator
     *  thread, which also runs the reference chunks around rounds. */
    SliceSeries roundUs;
    SliceSeries roundRefUs;
    RequestSpeed speed;
    /** Raw records that end the round the generator waits for. */
    std::atomic<std::uint64_t> roundTarget{0};
    std::mutex roundMutex;
    std::condition_variable roundDone;
    /** Wall time the generator has spent inside publish(). */
    std::atomic<std::int64_t> publishNs{0};
    std::unique_ptr<std::atomic<std::int64_t>[]> publishStamp;
    std::unique_ptr<SpanLog> publishLog;
    std::unique_ptr<SpanLog> pollLog;

    net::SensorRegistry registry;
    std::unique_ptr<net::FleetServer> server;
    pid_t loopTid = 0;

    std::atomic<bool> stopRequested{false};
    std::atomic<pid_t> generatorTid{0};
    std::atomic<pid_t> tierTid{0};
    std::atomic<std::int64_t> ticksSent{0};
    std::atomic<bool> tierStop{false};
    /** Set by the tier thread once every tier stream ended. */
    std::atomic<bool> tierEnded{false};
    std::thread tierThread;
    std::thread generator;
};

void
subscribeAll(net::FleetClient &client, host::Tier tier)
{
    for (std::uint16_t s = 0; s < kSensors; ++s)
        client.subscribe(static_cast<std::uint16_t>(s + 1), s, tier,
                         transport::RingOverflow::Block,
                         net::kUnlimitedCredit);
    std::size_t acked = 0;
    const std::int64_t deadline = nowNs() + 5'000'000'000;
    while (acked < kSensors) {
        net::FleetClient::Event event;
        if (client.poll(event, 0.1)
            && event.kind == net::FleetClient::Event::Kind::SubscribeAck) {
            if (event.ack.status != net::SubscribeStatus::Ok)
                throw std::runtime_error("fleet-fanout: subscribe refused");
            ++acked;
        }
        if (nowNs() > deadline)
            throw std::runtime_error("fleet-fanout: missing subscribe acks");
    }
}

Session::Session(const RunSpec &spec, int trial)
    : seed(spec.seed), traced(spec.traced),
      windowEndRel(kWarmupNs + sliceCount(spec.seconds) * kSliceNs),
      raw(windowEndRel), tier(windowEndRel),
      roundUs(kWarmupNs, windowEndRel, kSliceNs),
      roundRefUs(kWarmupNs, windowEndRel, kSliceNs)
{
    if (traced) {
        publishLog = std::make_unique<SpanLog>("registry.publish", 20000);
        pollLog = std::make_unique<SpanLog>("client.v2_poll", 20000);
        publishStamp =
            std::make_unique<std::atomic<std::int64_t>[]>(kStampRing);
    }

    firmware::DeviceConfig config{};
    config[0].inUse = true;
    config[1].inUse = true;
    for (std::uint16_t s = 0; s < kSensors; ++s)
        registry.addSimulated("fleet-" + std::to_string(s), config, "e2e",
                              kRate, kRingRecords);
    auto tids = listTids();
    server = std::make_unique<net::FleetServer>(registry);
    loopTid = singleNewTid(tids, listTids(), "FleetServer");
    socketPath = spec.workDir + "/" + spec.tag + "-"
                 + std::to_string(trial) + ".sock";
    transport::Endpoint where;
    where.kind = transport::Endpoint::Kind::Unix;
    where.path = socketPath;
    const auto endpoint = server->listen(where);

    raw.client = net::FleetClient::connect(endpoint, 5.0);
    subscribeAll(*raw.client, host::Tier::Raw);
    tier.client = net::FleetClient::connect(endpoint, 5.0);
    subscribeAll(*tier.client, host::Tier::Hz1000);

    scheduleStart.store(nowNs(), std::memory_order_relaxed);
    if (publishLog) {
        publishLog->setWindow(start() + kWarmupNs, start() + windowEndRel);
        pollLog->setWindow(start() + kWarmupNs, start() + windowEndRel);
    }

    tierThread = std::thread([this] {
        tierTid.store(currentTid(), std::memory_order_release);
        while (!tierStop.load(std::memory_order_relaxed)
               && !tier.allEnded()) {
            net::FleetClient::Event event;
            if (tier.client->poll(event, 0.05))
                onTier(event);
        }
        tierEnded.store(tier.allEnded(), std::memory_order_release);
    });
    generator = std::thread([this] {
        generatorTid.store(currentTid(), std::memory_order_release);
        speed.begin();
        for (std::int64_t k = 0;
             !stopRequested.load(std::memory_order_relaxed);) {
            const std::int64_t t0 = nowNs();
            for (const std::int64_t end = k + kRoundTicks; k < end; ++k) {
                if (publishStamp)
                    publishStamp[static_cast<std::size_t>(k) % kStampRing]
                        .store(nowNs(), std::memory_order_relaxed);
                for (std::uint16_t s = 0; s < kSensors; ++s) {
                    const host::DumpRecord r = fleetRecord(seed, s, k);
                    if (publishLog) {
                        Span span;
                        span.startNs = nowNs();
                        registry.publish(s, r);
                        span.endNs = nowNs();
                        span.recordId = k * kSensors + s;
                        span.items = 1;
                        publishLog->add(span);
                    } else {
                        registry.publish(s, r);
                    }
                }
            }
            publishNs.store(publishNs.load(std::memory_order_relaxed)
                                + (nowNs() - t0),
                            std::memory_order_relaxed);
            ticksSent.store(k, std::memory_order_release);
            const auto target = static_cast<std::uint64_t>(k) * kSensors;
            roundTarget.store(target, std::memory_order_release);
            std::unique_lock<std::mutex> lock(roundMutex);
            roundDone.wait(lock, [&] {
                return raw.records.load(std::memory_order_acquire) >= target
                       || stopRequested.load(std::memory_order_relaxed);
            });
            lock.unlock();
            const auto ns = static_cast<double>(nowNs() - t0);
            roundUs.add(t0 - start(), ns * 1e-3);
            roundRefUs.add(t0 - start(), speed.finish(ns) * 1e-3);
        }
    });
    while (generatorTid.load(std::memory_order_acquire) == 0
           || tierTid.load(std::memory_order_acquire) == 0)
        std::this_thread::yield();
}

Session::~Session()
{
    if (generator.joinable())
        stopGenerator();
    // Close the raw client first: a setup trial stops polling it with a
    // round in flight, and a server stopping with a full socket to it
    // would wait out its write timeout.
    raw.client.reset();
    registry.stopAll();
    if (server)
        server->stop();
    if (tierThread.joinable()) {
        tierStop.store(true);
        tier.client->abort();
        tierThread.join();
    }
    tier.client.reset();
    server.reset();
    ::unlink(socketPath.c_str());
}

void
Session::onRaw(const net::FleetClient::Event &event, std::int64_t now)
{
    using Kind = net::FleetClient::Event::Kind;
    if (event.kind == Kind::ConnectionClosed) {
        raw.closed = true;
        return;
    }
    if (event.streamId < 1 || event.streamId > kSensors)
        return;
    const std::uint16_t s = static_cast<std::uint16_t>(event.streamId - 1);
    raw.gap[s] += event.gapRecords;
    if (event.kind == Kind::StreamEnd) {
        raw.ended[s] = true;
        return;
    }
    if (event.kind != Kind::Records)
        return;
    for (std::size_t i = 0; i < event.records.size(); ++i) {
        const auto &r = event.records[i];
        const auto seq = static_cast<std::int64_t>(event.firstSeq + i);
        const std::int64_t k = fleetTickOfTime(r.time);
        if (k != seq || seq != raw.expectNext[s]) {
            raw.problem("sensor " + std::to_string(s) + " seq "
                        + std::to_string(seq) + " carries tick "
                        + std::to_string(k) + ", expected "
                        + std::to_string(raw.expectNext[s]));
        } else {
            const host::DumpRecord want = fleetRecord(seed, s, k);
            if (r.presentMask != want.presentMask
                || r.voltage[0] != want.voltage[0]
                || r.current[0] != want.current[0])
                raw.problem("sensor " + std::to_string(s) + " tick "
                            + std::to_string(k) + " value mismatch");
        }
        raw.expectNext[s] = seq + 1;
        if (publishStamp)
            raw.netLatencyUs.add(
                now - start(),
                (now
                 - publishStamp[static_cast<std::size_t>(k) % kStampRing]
                       .load(std::memory_order_relaxed))
                    * 1e-3);
    }
    raw.perSensor[s] += event.records.size();
    const std::uint64_t records =
        raw.records.fetch_add(event.records.size(), std::memory_order_acq_rel)
        + event.records.size();
    if (records >= roundTarget.load(std::memory_order_acquire)) {
        // Taking the mutex orders this wakeup after the generator's
        // check of the predicate, so it cannot be lost.
        { std::lock_guard<std::mutex> lock(roundMutex); }
        roundDone.notify_one();
    }
}

void
Session::onTier(const net::FleetClient::Event &event)
{
    using Kind = net::FleetClient::Event::Kind;
    if (event.kind == Kind::ConnectionClosed) {
        tier.closed = true;
        return;
    }
    if (event.streamId < 1 || event.streamId > kSensors)
        return;
    const std::uint16_t s = static_cast<std::uint16_t>(event.streamId - 1);
    tier.gap[s] += event.gapRecords;
    if (event.kind == Kind::StreamEnd) {
        tier.ended[s] = true;
        return;
    }
    if (event.kind != Kind::Buckets)
        return;
    for (const auto &[level, bucket] : event.buckets) {
        // Reference fold: the bucket's ticks, recomputed from the seed.
        const std::int64_t first =
            std::llround(bucket.startTime * kRate);
        if (level != host::Tier::Hz1000 || first != tier.expectNext[s]
            || bucket.samples == 0 || bucket.samples > 20) {
            tier.problem("sensor " + std::to_string(s) + " bucket at tick "
                         + std::to_string(first) + " with "
                         + std::to_string(bucket.samples)
                         + " samples, expected tick "
                         + std::to_string(tier.expectNext[s]));
        } else {
            double sum_power = 0.0;
            for (std::uint64_t i = 0; i < bucket.samples; ++i) {
                const host::DumpRecord r =
                    fleetRecord(seed, s, first + static_cast<std::int64_t>(i));
                sum_power += r.voltage[0] * r.current[0];
            }
            const double want = sum_power / kRate;
            if (std::abs(bucket.energyJoules - want)
                > 1e-12 * std::max(1.0, std::abs(want)))
                tier.problem("sensor " + std::to_string(s) + " bucket at tick "
                             + std::to_string(first) + " energy "
                             + formatNumber(bucket.energyJoules) + " J, fold "
                             + formatNumber(want) + " J");
        }
        tier.expectNext[s] = first + 20;
        tier.perSensor[s] += bucket.samples;
    }
    tier.records.fetch_add(event.buckets.size(), std::memory_order_relaxed);
}

void
Session::pollRaw(double timeout)
{
    net::FleetClient::Event event;
    const std::int64_t start = nowNs();
    if (!raw.client->poll(event, timeout))
        return;
    const std::int64_t now = nowNs();
    if (pollLog && event.kind == net::FleetClient::Event::Kind::Records) {
        Span span;
        span.startNs = start;
        span.endNs = now;
        span.recordId = static_cast<std::int64_t>(event.firstSeq) * kSensors
                        + (event.streamId - 1);
        span.items = event.records.size();
        pollLog->add(span);
    }
    onRaw(event, now);
}

void
Session::stopGenerator()
{
    {
        std::lock_guard<std::mutex> lock(roundMutex);
        stopRequested.store(true);
    }
    roundDone.notify_one();
    generator.join();
}

bool
Session::drain()
{
    const auto published = static_cast<std::uint64_t>(ticksSent.load());
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(kDrainSeconds * 1e9);
    while (nowNs() < deadline) {
        bool done = true;
        for (std::uint16_t s = 0; s < kSensors; ++s)
            done = done && raw.perSensor[s] + raw.gap[s] >= published;
        if (done)
            return true;
        pollRaw(0.01);
    }
    return false;
}

void
Session::finish()
{
    registry.stopAll();
    server->stop();
    const std::int64_t deadline = nowNs() + 3'000'000'000;
    while (!raw.allEnded() && nowNs() < deadline)
        pollRaw(0.05);
    while (!tierEnded.load(std::memory_order_acquire) && nowNs() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    tierStop.store(true);
    tier.client->abort();
    tierThread.join();
}

struct Mark
{
    std::int64_t t = 0;
    std::int64_t processCpu = 0;
    std::int64_t generatorCpu = 0;
    std::int64_t loopCpu = 0;
    std::int64_t tierCpu = 0;
    std::int64_t mainCpu = 0;
    std::int64_t requestNs = 0;
    std::int64_t requestRefNs = 0;
    CpuTicks ticks;
    std::int64_t publishNs = 0;
    std::uint64_t rawRecords = 0;
    obs::Snapshot obs;
};

Mark
mark(Session &s)
{
    Mark m;
    m.obs = obs::Registry::global().snapshot();
    m.t = nowNs();
    m.processCpu = processCpuNs();
    m.generatorCpu = threadCpuNs(s.generatorTid.load());
    m.loopCpu = threadCpuNs(s.loopTid);
    m.tierCpu = threadCpuNs(s.tierTid.load());
    m.mainCpu = selfThreadCpuNs();
    m.requestNs = s.speed.measuredNs();
    m.requestRefNs = s.speed.referenceNs();
    m.ticks = readCpuTicks();
    m.publishNs = s.publishNs.load(std::memory_order_relaxed);
    m.rawRecords = s.raw.records.load();
    return m;
}

} // namespace

RunResult
runFleetFanout(const RunSpec &spec)
{
    RunResult result;
    std::vector<double> setups;
    std::unique_ptr<Session> s;
    for (int trial = 0; trial < kSetupTrials; ++trial) {
        s.reset();
        const std::int64_t t0 = nowNs();
        s = std::make_unique<Session>(spec, trial);
        const std::int64_t deadline = nowNs() + 5'000'000'000;
        while (s->raw.records.load() == 0 || s->tier.records.load() == 0) {
            s->pollRaw(0.001);
            if (nowNs() > deadline)
                throw std::runtime_error(
                    "fleet-fanout: first record never arrived");
        }
        setups.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
    }

    // One mark per slice boundary of the window.
    // Pinned, every thread of the stack shares one CPU from here on,
    // so a round never waits for a halted CPU to wake and the reference
    // chunks run where the work does.
    std::vector<Mark> marks;
    const auto measure = [&] {
        for (std::int64_t next = s->start() + kWarmupNs;
             next <= s->start() + s->windowEndRel; next += kSliceNs) {
            while (nowNs() < next)
                s->pollRaw(0.001);
            marks.push_back(mark(*s));
        }
    };
    if (!spec.pinned)
        measure();
    else
        onSharedCpu({s->generatorTid.load(), s->loopTid, s->tierTid.load()}, measure);
    const Mark &a = marks.front();
    const Mark &b = marks.back();

    s->stopGenerator();
    const bool drained = s->drain();
    const auto published = static_cast<std::uint64_t>(s->ticksSent.load());
    s->finish();
    const std::uint64_t server_dropped = s->server->recordsDropped();

    // ----- checks -----------------------------------------------------
    if (!drained)
        result.fail("fleet-fanout: raw consumer did not drain within "
                    + formatNumber(kDrainSeconds) + " s");
    std::vector<StreamAccount> streams;
    std::uint64_t gaps = 0;
    std::uint64_t lost = 0;
    for (std::uint16_t i = 0; i < kSensors; ++i) {
        const std::uint64_t pub = s->registry.entry(i).published.load();
        if (pub != published)
            result.fail("fleet-fanout: sensor " + std::to_string(i)
                        + " published " + std::to_string(pub) + " of "
                        + std::to_string(published));
        streams.push_back({"raw sensor " + std::to_string(i), pub,
                           s->raw.perSensor[i], 0, s->raw.gap[i]});
        streams.push_back({"Hz1000 sensor " + std::to_string(i), pub,
                           s->tier.perSensor[i], 0, s->tier.gap[i]});
        gaps += s->raw.gap[i] + s->tier.gap[i];
        lost += streams[streams.size() - 2].lost();
    }
    for (const auto &v : accountingViolations(streams))
        result.fail("fleet-fanout " + v);
    if (server_dropped != gaps)
        result.fail("fleet-fanout: server dropped "
                    + std::to_string(server_dropped)
                    + " records but clients saw gaps of "
                    + std::to_string(gaps));
    for (const Side *side : {&s->raw, &s->tier}) {
        if (side->mismatches)
            result.fail("fleet-fanout: " + std::to_string(side->mismatches)
                        + " bad records, first: " + side->firstProblem);
    }
    result.attempted = published * kSensors;
    result.failed = lost + s->raw.mismatches + s->tier.mismatches;

    // ----- metrics ----------------------------------------------------
    // CPU of the process less the generator's own: its publish()
    // calls are the program's work and count.
    auto cpu_between = [](const Mark &m0, const Mark &m1) {
        return static_cast<double>((m1.processCpu - m0.processCpu)
                                   - (m1.generatorCpu - m0.generatorCpu)
                                   + (m1.publishNs - m0.publishNs));
    };
    WindowFigures window;
    window.latencyUs = &s->roundRefUs;
    window.bounds.push_back(a.t);
    for (std::size_t i = 1; i < marks.size(); ++i) {
        window.bounds.push_back(marks[i].t);
        window.speedFactors.push_back(speedFactor(
            marks[i - 1].requestNs, marks[i - 1].requestRefNs,
            marks[i].requestNs, marks[i].requestRefNs));
        window.stealPct.push_back(
            stealPct(marks[i - 1].ticks, marks[i].ticks));
        const double n =
            static_cast<double>(marks[i].rawRecords - marks[i - 1].rawRecords);
        window.cpuPerRecord.push_back(
            perRecord(cpu_between(marks[i - 1], marks[i]), n));
        window.rate.push_back(
            n * 1e9 / static_cast<double>(marks[i].t - marks[i - 1].t));
    }
    const double records = static_cast<double>(b.rawRecords - a.rawRecords);
    const double publish = static_cast<double>(b.publishNs - a.publishNs);
    const double cpu = cpu_between(a, b);
    const auto lat = s->roundUs.overall();
    reportSetups(result, setups);
    std::ostringstream note;
    note << "fleet-fanout rounds of " << kRoundTicks * kSensors
         << " records over the window: n=" << lat.count
         << " p50=" << lat.p50 << " p90=" << lat.p90 << " p99="
         << (lat.p99Reportable ? formatNumber(lat.p99) : std::string("n/a"))
         << " max=" << lat.max << " us; published " << published
         << " ticks x " << kSensors
         << " sensors; lost " << lost << "; server loop busy "
         << 100.0 * static_cast<double>(b.loopCpu - a.loopCpu)
                / static_cast<double>(b.t - a.t)
         << " %; CPU steal " << stealPct(a.ticks, b.ticks) << " %";
    result.notes.push_back(note.str());
    reportWindow(result, std::move(window));

    if (spec.traced) {
        const auto delta = obs::diff(a.obs, b.obs);
        const double loop = static_cast<double>(b.loopCpu - a.loopCpu);
        const double main_cpu = static_cast<double>(b.mainCpu - a.mainCpu);
        const double tier_cpu = static_cast<double>(b.tierCpu - a.tierCpu);
        const auto netlat = s->raw.netLatencyUs.overall();
        const double sent_records =
            records
            + counterValue(delta, "ps3_net_tier_buckets_sent_total");
        result.set("registry.publish_ns_p50", s->publishLog->medianNs(),
                   "ns");
        result.set("registry.publish_ns_per_record",
                   perRecord(publish, records), "ns");
        result.set("server.loop_cpu_ns_per_record", perRecord(loop, records),
                   "ns");
        result.set("server.wakeups_per_krecord",
                   perRecord(1000.0
                                 * counterValue(delta,
                                                "ps3_net_loop_wakeups_total"),
                             sent_records),
                   "1/krecord");
        result.set("server.frames_per_krecord",
                   perRecord(1000.0
                                 * counterValue(delta,
                                                "ps3_net_batches_sent_total"),
                             sent_records),
                   "1/krecord");
        result.set("server.bytes_per_record",
                   perRecord(counterValue(delta, "ps3_net_bytes_sent_total"),
                             sent_records),
                   "B");
        result.set("server.tier_buckets",
                   counterValue(delta, "ps3_net_tier_buckets_sent_total"),
                   "count");
        result.set("server.records_dropped",
                   counterValue(delta, "ps3_net_records_dropped_total"),
                   "count");
        result.set("server.credit_stalls",
                   counterValue(delta, "ps3_net_credit_stalls_total"),
                   "count");
        result.set("client.v2_cpu_ns_per_record",
                   perRecord(main_cpu, records), "ns");
        result.set("client.v2_tier_cpu_ns_per_record",
                   perRecord(tier_cpu, records), "ns");
        result.set("client.v2_latency_p50_us", netlat.p50, "us");
        result.set("net.delivery_latency_p50_us", netlat.p50, "us");
        double gap_total = 0.0;
        for (std::uint16_t i = 0; i < kSensors; ++i)
            gap_total += static_cast<double>(s->raw.gap[i] + s->tier.gap[i]);
        result.set("client.gap_records", gap_total, "count");
        result.set("health.cpu_steal_pct", stealPct(a.ticks, b.ticks),
                   "%");
        result.set("lost_fraction",
                   perRecord(static_cast<double>(lost),
                             static_cast<double>(published * kSensors)),
                   "1");
        result.set("trace.cpu_ns_per_record", perRecord(cpu, records), "ns");
        result.set("trace.unattributed_cpu_ns_per_record",
                   perRecord(cpu - publish - loop - main_cpu - tier_cpu,
                             records),
                   "ns");
        std::ostringstream tnote;
        tnote << "fleet-fanout trace: " << s->publishLog->count()
              << " publish spans, " << s->pollLog->count()
              << " raw poll spans (p50 " << s->pollLog->medianNs()
              << " ns), tier buckets "
              << counterValue(delta, "ps3_net_tier_buckets_sent_total");
        result.notes.push_back(tnote.str());
        writeSpans(spec, {s->publishLog.get(), s->pollLog.get()});
    }
    return result;
}

} // namespace e2e
