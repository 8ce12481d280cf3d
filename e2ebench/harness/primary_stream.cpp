/**
 * @file
 * Workload `primary-stream`: the path ps3d runs for its primary
 * sensor, with no physics. A generator writes pre-encoded 4-pair
 * frame sets into a PipeDevice served by firmware::WireStub in
 * closed-loop rounds: kRoundChunks chunks of 20 sets (1 ms of device
 * time, one USB full-speed frame) at once, then a wait until both
 * clients have decoded the round. A PowerSensor parses them, a
 * SensorRegistry publishes them, a FleetServer sends them over a
 * unix socket to one v1 NetPowerSensor (the `psrun --connect` path)
 * and one v2 FleetClient raw stream.
 */
#include <unistd.h>

#include <condition_variable>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "analog/sensor_models.hpp"
#include "firmware/wire_stub.hpp"
#include "host/power_sensor.hpp"
#include "net/fleet_client.hpp"
#include "net/fleet_server.hpp"
#include "net/net_power_sensor.hpp"
#include "net/registry.hpp"
#include "transport/pipe_device.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace ps3;

PrimaryTemplate
makePrimaryTemplate(std::uint64_t seed)
{
    PrimaryTemplate t;
    for (unsigned ch = 0; ch < firmware::kNumChannels; ++ch) {
        auto &record = t.config[ch];
        record.name = "e2e";
        record.inUse = true;
        if (firmware::isCurrentChannel(ch)) {
            record.vref = 1.65f;
            record.slope = 0.11f;
        } else {
            record.vref = 0.0f;
            record.slope = 0.25f;
        }
    }
    constexpr unsigned kSets = PrimaryTemplate::kTemplateSets;
    t.bytes.reserve(kSets * PrimaryTemplate::kBytesPerSet);
    t.volts.resize(kSets);
    t.amps.resize(kSets);
    auto push = [&](const firmware::Frame &frame) {
        const auto b = firmware::encodeFrame(frame);
        t.bytes.push_back(b[0]);
        t.bytes.push_back(b[1]);
    };
    for (unsigned set = 0; set < kSets; ++set) {
        push(firmware::makeTimestampFrame(25 + 50ull * set));
        std::uint16_t level[firmware::kNumChannels];
        for (unsigned ch = 0; ch < firmware::kNumChannels; ++ch) {
            level[ch] = static_cast<std::uint16_t>(
                mix64(seed * 0x10000 + set * firmware::kNumChannels + ch)
                & 0x3FF);
            firmware::Frame frame;
            frame.sensorId = static_cast<std::uint8_t>(ch);
            frame.level = level[ch];
            push(frame);
        }
        // The calibration PowerSensor applies (power_sensor.cpp).
        for (unsigned p = 0; p < host::kMaxPairs; ++p) {
            const auto &ci = t.config[2 * p];
            const auto &cv = t.config[2 * p + 1];
            t.amps[set][p] =
                (analog::AdcModel::toVolts(level[2 * p]) - ci.vref)
                / ci.slope;
            t.volts[set][p] =
                analog::AdcModel::toVolts(level[2 * p + 1]) / cv.slope;
        }
    }
    return t;
}

namespace {

constexpr std::int64_t kSetsPerChunk = PrimaryTemplate::kSetsPerChunk;
/**
 * Chunks per round: 12 000 sets, over 10 ms of work, so the handful
 * of thread wakeups a round needs stay a small part of it. The next
 * round starts only once both clients hold this one, and it is under
 * the registry's default ring (16 384), so no client can be lapped.
 */
constexpr std::uint64_t kRoundChunks = 600;
/** Write time of recent chunks, for the per-set latencies. */
constexpr std::size_t kChunkRing = 1u << 12;
/** Host-ingest stamps kept for the net delivery latency (traced). */
constexpr std::size_t kIngestRing = 1u << 16;
constexpr double kDrainSeconds = 5.0;

/** What one consumer saw. Written only by the consumer's thread;
 *  `records` is also read live by the main thread. */
struct Consumer
{
    explicit Consumer(std::int64_t window_end_ns)
        : latencyUs(kWarmupNs, window_end_ns, kSliceNs),
          netLatencyUs(kWarmupNs, window_end_ns, kSliceNs)
    {
    }

    std::atomic<std::uint64_t> records{0};
    std::int64_t expectNext = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t gap = 0;
    std::string firstProblem;
    /** Chunk written -> set processed, keyed by the time since the
     *  schedule start it was processed at. */
    SliceSeries latencyUs;
    /** Host ingest -> set decoded (traced runs), keyed likewise. */
    SliceSeries netLatencyUs;

    void
    problem(const std::string &what)
    {
        ++mismatches;
        if (firstProblem.empty())
            firstProblem = what;
    }
};

/** Compare one delivered set with the template. */
void
checkSet(const PrimaryTemplate &tpl, Consumer &c, std::int64_t n,
         const std::array<double, host::kMaxPairs> &volts,
         const std::array<double, host::kMaxPairs> &amps,
         bool all_present)
{
    if (n != c.expectNext)
        c.problem("set " + std::to_string(n) + " arrived where "
                  + std::to_string(c.expectNext) + " was due");
    c.expectNext = n + 1;
    if (n < 0 || !all_present) {
        c.problem("set " + std::to_string(n) + " malformed");
        return;
    }
    const auto &v = tpl.volts[static_cast<std::size_t>(n)
                              % PrimaryTemplate::kTemplateSets];
    const auto &a = tpl.amps[static_cast<std::size_t>(n)
                             % PrimaryTemplate::kTemplateSets];
    if (volts != v || amps != a)
        c.problem("set " + std::to_string(n)
                  + " values differ from the template");
}

/** Everything of one setup, torn down in reverse declaration order. */
struct Session
{
    Session(const PrimaryTemplate &tpl, const RunSpec &spec, int trial);
    ~Session();
    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** Handle one v2 event on the main thread. */
    void onV2(const net::FleetClient::Event &event, std::int64_t now);
    /** Poll the v2 client once. */
    void pollV2(double timeout);
    /** Stop the generator and close the last frame set. */
    void stopGenerator();
    /** Wait for every consumer to account for every set. */
    bool drain();
    /** registry.stopAll + server.stop + wait for the v2 EOS. */
    void finish();

    /** Record set n processed at `now` by `c`; wake the generator when
     *  its round is done. */
    void delivered(Consumer &c, std::int64_t n, std::int64_t now);
    /** Wake the generator if both clients finished its round. */
    void progressed();

    std::int64_t
    start() const
    {
        return scheduleStart.load(std::memory_order_relaxed);
    }

    const PrimaryTemplate &tpl;
    const bool traced;
    /** Window end relative to the schedule start (whole slices). */
    const std::int64_t windowEndRel;
    std::string socketPath;
    std::atomic<std::int64_t> scheduleStart{0};

    Consumer hostIngest;
    Consumer v1c;
    Consumer v2c;
    std::unique_ptr<std::atomic<std::int64_t>[]> ingestNs;
    std::unique_ptr<std::atomic<std::int64_t>[]> chunkNs;
    /** Round durations as measured and at reference speed, keyed by
     *  round start since the schedule start; written by the generator
     *  thread, which also runs the reference chunks around rounds. */
    SliceSeries roundUs;
    SliceSeries roundRefUs;
    RequestSpeed speed;
    /** Sets both clients must hold to end the generator's round. */
    std::atomic<std::uint64_t> roundTarget{0};
    std::mutex roundMutex;
    std::condition_variable roundDone;
    std::unique_ptr<SpanLog> readLog;
    std::unique_ptr<SpanLog> pollLog;

    transport::PipeDevice pipe;
    firmware::WireStub stub;
    std::unique_ptr<TimedDevice> timed;
    std::unique_ptr<host::PowerSensor> sensor;
    pid_t readerTid = 0;
    net::SensorRegistry registry;
    std::unique_ptr<net::FleetServer> server;
    pid_t loopTid = 0;
    std::unique_ptr<net::NetPowerSensor> v1;
    pid_t v1Tid = 0;
    std::unique_ptr<net::FleetClient> v2;
    bool v2Ended = false;

    std::atomic<bool> stopRequested{false};
    std::atomic<pid_t> generatorTid{0};
    std::atomic<std::uint64_t> chunksSent{0};
    std::thread generator;
};

Session::Session(const PrimaryTemplate &t, const RunSpec &spec, int trial)
    : tpl(t), traced(spec.traced),
      windowEndRel(kWarmupNs + sliceCount(spec.seconds) * kSliceNs),
      hostIngest(windowEndRel), v1c(windowEndRel), v2c(windowEndRel),
      chunkNs(std::make_unique<std::atomic<std::int64_t>[]>(kChunkRing)),
      roundUs(kWarmupNs, windowEndRel, kSliceNs),
      roundRefUs(kWarmupNs, windowEndRel, kSliceNs), stub(pipe, t.config)
{
    transport::CharDevice *device = &pipe;
    if (traced) {
        readLog = std::make_unique<SpanLog>("transport.read", 20000);
        pollLog = std::make_unique<SpanLog>("client.v2_poll", 20000);
        timed = std::make_unique<TimedDevice>(pipe, *readLog);
        device = timed.get();
        ingestNs =
            std::make_unique<std::atomic<std::int64_t>[]>(kIngestRing);
    }
    auto tids = listTids();
    sensor = std::make_unique<host::PowerSensor>(*device);
    readerTid = singleNewTid(tids, listTids(), "PowerSensor");
    if (traced) {
        // Registered before the registry's listener, so the stamp is
        // taken at ingest, before the publish.
        sensor->addSampleListener([this](const host::Sample &s) {
            const std::int64_t now = nowNs();
            const std::int64_t n = setIndexOfDeviceTime(s.time);
            ingestNs[static_cast<std::size_t>(n) % kIngestRing].store(
                now, std::memory_order_relaxed);
            hostIngest.latencyUs.add(
                now - start(),
                (now - chunkNs[static_cast<std::size_t>(n / kSetsPerChunk)
                               % kChunkRing]
                           .load(std::memory_order_relaxed))
                    * 1e-3);
            hostIngest.records.fetch_add(1, std::memory_order_relaxed);
        });
    }
    // PowerSensor keeps its control mutex across the reader's blocking
    // read() and re-takes it right after letting go, so addSensor()'s
    // firmware-version query can starve on another CPU for seconds to
    // minutes (0.04-125 s seen on a 4-core box). On one shared CPU the
    // reader's yield hands the mutex over. Drop this once PowerSensor
    // hands its control mutex over fairly.
    onSharedCpu({readerTid}, [&] { registry.addSensor(*sensor, "primary"); });

    tids = listTids();
    server = std::make_unique<net::FleetServer>(registry);
    loopTid = singleNewTid(tids, listTids(), "FleetServer");
    socketPath = spec.workDir + "/" + spec.tag + "-"
                 + std::to_string(trial) + ".sock";
    transport::Endpoint where;
    where.kind = transport::Endpoint::Kind::Unix;
    where.path = socketPath;
    const auto endpoint = server->listen(where);

    tids = listTids();
    v1 = std::make_unique<net::NetPowerSensor>(endpoint);
    v1Tid = singleNewTid(tids, listTids(), "NetPowerSensor");
    v1->addSampleListener([this](const host::Sample &s) {
        const std::int64_t now = nowNs();
        const std::int64_t n = setIndexOfDeviceTime(s.time);
        checkSet(tpl, v1c, n, s.voltage, s.current,
                 s.present[0] && s.present[1] && s.present[2]
                     && s.present[3]);
        delivered(v1c, n, now);
        v1c.records.fetch_add(1, std::memory_order_acq_rel);
        progressed();
    });

    v2 = net::FleetClient::connect(endpoint, 5.0);
    v2->subscribe(1, 0, host::Tier::Raw, transport::RingOverflow::Block,
                  net::kUnlimitedCredit);
    const std::int64_t deadline = nowNs() + 5'000'000'000;
    for (;;) {
        net::FleetClient::Event event;
        if (v2->poll(event, 0.1)
            && event.kind == net::FleetClient::Event::Kind::SubscribeAck) {
            if (event.ack.status != net::SubscribeStatus::Ok)
                throw std::runtime_error("primary-stream: v2 subscribe "
                                         "refused");
            break;
        }
        if (nowNs() > deadline)
            throw std::runtime_error("primary-stream: no subscribe ack");
    }

    scheduleStart.store(nowNs(), std::memory_order_relaxed);
    if (readLog) {
        readLog->setWindow(start() + kWarmupNs, start() + windowEndRel);
        pollLog->setWindow(start() + kWarmupNs, start() + windowEndRel);
    }
    generator = std::thread([this] {
        generatorTid.store(currentTid(), std::memory_order_release);
        speed.begin();
        for (std::uint64_t c = 0;
             !stopRequested.load(std::memory_order_relaxed);) {
            const std::int64_t t0 = nowNs();
            for (const std::uint64_t end = c + kRoundChunks; c < end; ++c) {
                chunkNs[c % kChunkRing].store(nowNs(),
                                              std::memory_order_relaxed);
                stub.send(tpl.chunk(c),
                          kSetsPerChunk * PrimaryTemplate::kBytesPerSet);
            }
            chunksSent.store(c, std::memory_order_release);
            // A set is complete only when the next timestamp arrives:
            // the round's last set arrives with the next round.
            const std::uint64_t target = c * kSetsPerChunk - 1;
            roundTarget.store(target, std::memory_order_release);
            std::unique_lock<std::mutex> lock(roundMutex);
            roundDone.wait(lock, [&] {
                return (v1c.records.load(std::memory_order_acquire) >= target
                        && v2c.records.load(std::memory_order_acquire)
                               >= target)
                       || stopRequested.load(std::memory_order_relaxed);
            });
            lock.unlock();
            const auto ns = static_cast<double>(nowNs() - t0);
            roundUs.add(t0 - start(), ns * 1e-3);
            roundRefUs.add(t0 - start(), speed.finish(ns) * 1e-3);
        }
    });
    while (generatorTid.load(std::memory_order_acquire) == 0)
        std::this_thread::yield();
}

Session::~Session()
{
    if (generator.joinable()) {
        {
            std::lock_guard<std::mutex> lock(roundMutex);
            stopRequested.store(true);
        }
        roundDone.notify_one();
        generator.join();
    }
    // Close the v2 client first: a setup trial stops polling it with a
    // round in flight, and a server stopping with a full socket to it
    // would wait out its write timeout.
    v2.reset();
    registry.stopAll();
    if (server)
        server->stop();
    v1.reset();
    server.reset();
    ::unlink(socketPath.c_str());
}

void
Session::onV2(const net::FleetClient::Event &event, std::int64_t now)
{
    using Kind = net::FleetClient::Event::Kind;
    v2c.gap += event.gapRecords;
    if (event.kind == Kind::StreamEnd
        || event.kind == Kind::ConnectionClosed) {
        v2Ended = true;
        return;
    }
    if (event.kind != Kind::Records)
        return;
    for (std::size_t i = 0; i < event.records.size(); ++i) {
        const auto &r = event.records[i];
        const std::int64_t n = setIndexOfDeviceTime(r.time);
        if (n != static_cast<std::int64_t>(event.firstSeq + i))
            v2c.problem("v2 record seq "
                        + std::to_string(event.firstSeq + i)
                        + " carries set " + std::to_string(n));
        checkSet(tpl, v2c, n, r.voltage, r.current,
                 r.presentMask == 0x0F);
        delivered(v2c, n, now);
    }
    v2c.records.fetch_add(event.records.size(), std::memory_order_acq_rel);
    progressed();
}

void
Session::delivered(Consumer &c, std::int64_t n, std::int64_t now)
{
    c.latencyUs.add(
        now - start(),
        (now
         - chunkNs[static_cast<std::size_t>(n / kSetsPerChunk) % kChunkRing]
               .load(std::memory_order_relaxed))
            * 1e-3);
    if (ingestNs)
        c.netLatencyUs.add(
            now - start(),
            (now
             - ingestNs[static_cast<std::size_t>(n) % kIngestRing].load(
                 std::memory_order_relaxed))
                * 1e-3);
}

void
Session::progressed()
{
    const std::uint64_t target = roundTarget.load(std::memory_order_acquire);
    if (v1c.records.load(std::memory_order_acquire) >= target
        && v2c.records.load(std::memory_order_acquire) >= target) {
        // Taking the mutex orders this wakeup after the generator's
        // check of the predicate, so it cannot be lost.
        { std::lock_guard<std::mutex> lock(roundMutex); }
        roundDone.notify_one();
    }
}

void
Session::pollV2(double timeout)
{
    net::FleetClient::Event event;
    const std::int64_t begin = nowNs();
    if (!v2->poll(event, timeout))
        return;
    const std::int64_t now = nowNs();
    if (pollLog && event.kind == net::FleetClient::Event::Kind::Records) {
        Span span;
        span.startNs = begin;
        span.endNs = now;
        span.recordId = static_cast<std::int64_t>(event.firstSeq);
        span.items = event.records.size();
        pollLog->add(span);
    }
    onV2(event, now);
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
    // A set is complete only when the next timestamp arrives: close
    // the last one.
    const auto close = firmware::encodeFrame(firmware::makeTimestampFrame(
        25 + 50 * chunksSent.load() * kSetsPerChunk));
    stub.send(close.data(), close.size());
}

bool
Session::drain()
{
    const std::uint64_t published = chunksSent.load() * kSetsPerChunk;
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(kDrainSeconds * 1e9);
    while (nowNs() < deadline) {
        if (v1c.records.load() + v1->gapRecords() >= published
            && v2c.records.load() + v2c.gap >= published)
            return true;
        pollV2(0.01);
    }
    return false;
}

void
Session::finish()
{
    registry.stopAll();
    server->stop();
    const std::int64_t deadline = nowNs() + 3'000'000'000;
    while (!v2Ended && nowNs() < deadline)
        pollV2(0.05);
}

/** Counters read at every slice boundary of the measured window. */
struct Mark
{
    std::int64_t t = 0;
    std::int64_t processCpu = 0;
    std::int64_t generatorCpu = 0;
    std::int64_t readerCpu = 0;
    std::int64_t loopCpu = 0;
    std::int64_t v1Cpu = 0;
    std::int64_t mainCpu = 0;
    std::int64_t requestNs = 0;
    std::int64_t requestRefNs = 0;
    CpuTicks ticks;
    std::uint64_t v1Records = 0;
    std::uint64_t v2Records = 0;
    ps3::obs::Snapshot obs;
};

Mark
mark(Session &s)
{
    Mark m;
    m.obs = obs::Registry::global().snapshot();
    m.t = nowNs();
    m.processCpu = processCpuNs();
    m.generatorCpu = threadCpuNs(s.generatorTid.load());
    m.readerCpu = threadCpuNs(s.readerTid);
    m.loopCpu = threadCpuNs(s.loopTid);
    m.v1Cpu = threadCpuNs(s.v1Tid);
    m.mainCpu = selfThreadCpuNs();
    m.requestNs = s.speed.measuredNs();
    m.requestRefNs = s.speed.referenceNs();
    m.ticks = readCpuTicks();
    m.v1Records = s.v1c.records.load();
    m.v2Records = s.v2c.records.load();
    return m;
}

} // namespace

RunResult
runPrimaryStream(const RunSpec &spec)
{
    RunResult result;
    const PrimaryTemplate tpl = makePrimaryTemplate(spec.seed);

    std::vector<double> setups;
    std::unique_ptr<Session> s;
    for (int trial = 0; trial < kSetupTrials; ++trial) {
        s.reset();
        const std::int64_t t0 = nowNs();
        s = std::make_unique<Session>(tpl, spec, trial);
        const std::int64_t deadline = nowNs() + 5'000'000'000;
        while (s->v1c.records.load() == 0 || s->v2c.records.load() == 0) {
            s->pollV2(0.001);
            if (nowNs() > deadline)
                throw std::runtime_error(
                    "primary-stream: first record never arrived");
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
                s->pollV2(0.001);
            marks.push_back(mark(*s));
        }
    };
    if (!spec.pinned)
        measure();
    else
        onSharedCpu({s->generatorTid.load(), s->readerTid, s->loopTid, s->v1Tid}, measure);
    const Mark &a = marks.front();
    const Mark &b = marks.back();

    s->stopGenerator();
    const bool drained = s->drain();
    const std::uint64_t published = s->chunksSent.load() * kSetsPerChunk;
    const std::uint64_t host_sets = s->sensor->read().sampleCount;
    const std::uint64_t resync = s->sensor->resyncByteCount();
    const std::uint64_t registry_published =
        s->registry.entry(0).published.load();
    s->finish();
    const std::uint64_t v1_delivered = s->v1->recordsReceived();
    const std::uint64_t v1_gap = s->v1->gapRecords();
    const std::uint64_t server_dropped = s->server->recordsDropped();
    // Stop every writer of the consumer records before reading them.
    s->v1.reset();
    s->sensor.reset();

    // ----- checks -----------------------------------------------------
    if (!drained)
        result.fail("primary-stream: consumers did not drain within "
                    + formatNumber(kDrainSeconds) + " s");
    const std::vector<StreamAccount> streams = {
        {"host ingest", published, host_sets, 0, 0},
        {"registry", published, registry_published, 0, 0},
        {"v1 NetPowerSensor", registry_published, v1_delivered, 0, v1_gap},
        {"v2 raw", registry_published, s->v2c.records.load(), 0,
         s->v2c.gap},
    };
    for (const auto &v : accountingViolations(streams))
        result.fail("primary-stream " + v);
    if (server_dropped != v1_gap + s->v2c.gap)
        result.fail("primary-stream: server dropped "
                    + std::to_string(server_dropped)
                    + " records but clients saw gaps of "
                    + std::to_string(v1_gap + s->v2c.gap));
    if (resync != 0)
        result.fail("primary-stream: " + std::to_string(resync)
                    + " resync bytes");
    for (const Consumer *c : {&s->v1c, &s->v2c}) {
        if (c->mismatches)
            result.fail("primary-stream: " + std::to_string(c->mismatches)
                        + " bad sets, first: " + c->firstProblem);
    }
    result.attempted = 2 * published;
    const std::uint64_t lost = streams[2].lost() + streams[3].lost();
    result.failed = lost + s->v1c.mismatches + s->v2c.mismatches;

    // ----- metrics ----------------------------------------------------
    // CPU of the process less the generator's: it plays the device.
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
        const auto &m0 = marks[i - 1];
        const auto &m1 = marks[i];
        const double n = static_cast<double>(m1.v2Records - m0.v2Records);
        window.cpuPerRecord.push_back(perRecord(
            static_cast<double>((m1.processCpu - m0.processCpu)
                                - (m1.generatorCpu - m0.generatorCpu)),
            n));
        window.rate.push_back(n * 1e9
                                 / static_cast<double>(m1.t - m0.t));
    }
    const double records = static_cast<double>(b.v2Records - a.v2Records);
    const double cpu = static_cast<double>(
        (b.processCpu - a.processCpu) - (b.generatorCpu - a.generatorCpu));
    const auto rounds = s->roundUs.overall();
    const auto v1lat = s->v1c.latencyUs.overall();
    reportSetups(result, setups);
    std::ostringstream note;
    note << "primary-stream rounds of " << kRoundChunks * kSetsPerChunk
         << " sets over the window: n=" << rounds.count
         << " p50=" << rounds.p50 << " p90=" << rounds.p90 << " max="
         << rounds.max << " us; v1 chunk written -> set decoded p50="
         << v1lat.p50 << " p90=" << v1lat.p90 << " us; published "
         << published
         << " sets, lost " << lost << "; server loop busy "
         << 100.0 * static_cast<double>(b.loopCpu - a.loopCpu)
                / static_cast<double>(b.t - a.t)
         << " %; CPU steal " << stealPct(a.ticks, b.ticks) << " %";
    result.notes.push_back(note.str());
    reportWindow(result, std::move(window));

    if (spec.traced) {
        const auto delta = obs::diff(a.obs, b.obs);
        const double reader =
            static_cast<double>(b.readerCpu - a.readerCpu);
        const double loop = static_cast<double>(b.loopCpu - a.loopCpu);
        const double v1cpu = static_cast<double>(b.v1Cpu - a.v1Cpu);
        const double v2cpu = static_cast<double>(b.mainCpu - a.mainCpu);
        const double v1n = static_cast<double>(b.v1Records - a.v1Records);
        const auto [cb_sum, cb_count] =
            histogramSumCount(delta, "ps3_reader_callback_ns");
        const double read_cpu = static_cast<double>(s->readLog->cpuNs());
        const double sent_records = 2.0 * records;
        result.set("transport.read_ns_per_set",
                   perRecord(read_cpu, records), "ns");
        result.set("host.reader_cpu_ns_per_set", perRecord(reader, records),
                   "ns");
        result.set("host.parse_ns_per_set",
                   perRecord(reader - read_cpu - cb_sum, records), "ns");
        result.set("host.on_frame_set_ns_p50",
                   histogramMedian(
                       histogramBuckets(delta, "ps3_reader_callback_ns")),
                   "ns");
        result.set("host.ingest_latency_p50_us",
                   s->hostIngest.latencyUs.overall().p50, "us");
        result.set("server.loop_cpu_ns_per_record",
                   perRecord(loop, records), "ns");
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
        result.set("client.v1_cpu_ns_per_record", perRecord(v1cpu, v1n),
                   "ns");
        result.set("client.v2_cpu_ns_per_record", perRecord(v2cpu, records),
                   "ns");
        result.set("client.v2_latency_p50_us",
                   s->v2c.latencyUs.overall().p50, "us");
        result.set("net.delivery_latency_p50_us",
                   s->v1c.netLatencyUs.overall().p50, "us");
        result.set("client.gap_records",
                   counterValue(delta, "ps3_net_client_gap_records_total")
                       + static_cast<double>(s->v2c.gap),
                   "count");
        result.set("health.cpu_steal_pct", stealPct(a.ticks, b.ticks),
                   "%");
        result.set("lost_fraction",
                   perRecord(static_cast<double>(lost),
                             2.0 * static_cast<double>(published)),
                   "1");
        result.set("trace.cpu_ns_per_record", perRecord(cpu, records), "ns");
        result.set("trace.unattributed_cpu_ns_per_record",
                   perRecord(cpu - reader - loop - v1cpu - v2cpu, records),
                   "ns");
        std::ostringstream tnote;
        tnote << "primary-stream trace: " << s->readLog->count()
              << " read() spans, " << s->pollLog->count()
              << " v2 poll spans (p50 " << s->pollLog->medianNs()
              << " ns), " << static_cast<std::uint64_t>(cb_count)
              << " frame-set callbacks";
        result.notes.push_back(tnote.str());
        writeSpans(spec, {s->readLog.get(), s->pollLog.get()});
    }
    return result;
}

} // namespace e2e
