/**
 * @file
 * Microbenchmarks of the host library's hot paths (google-benchmark).
 *
 * The host library must keep up with the 20 kHz stream using a
 * "lightweight thread" (paper Sec. III-C); these benchmarks quantify
 * the headroom: frame encode/decode, stream parsing, statistics
 * accumulation, and the full firmware->host pipeline rate in frame
 * sets per second (compare against the 20 kHz real-time
 * requirement).
 */

#include <benchmark/benchmark.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "analog/sensor_module_spec.hpp"
#include "bench_json.hpp"
#include "energy/accountant.hpp"
#include "common/ring_buffer.hpp"
#include "common/rng.hpp"
#include "common/statistics.hpp"
#include "firmware/protocol.hpp"
#include "firmware/wire_stub.hpp"
#include "host/dump_reader.hpp"
#include "host/dump_writer.hpp"
#include "host/power_sensor.hpp"
#include "host/sim_setup.hpp"
#include "host/stream_parser.hpp"
#include "net/fleet_client.hpp"
#include "net/fleet_server.hpp"
#include "net/net_power_sensor.hpp"
#include "net/registry.hpp"
#include "net/server.hpp"
#include "net/shm_stream.hpp"
#include "net/wire.hpp"
#include "transport/broadcast_ring.hpp"
#include "transport/pipe_device.hpp"
#include "transport/shm_segment.hpp"
#include "transport/socket_device.hpp"

namespace {

using namespace ps3;

void
BM_FrameEncode(benchmark::State &state)
{
    firmware::Frame frame;
    frame.sensorId = 3;
    frame.level = 777;
    for (auto _ : state) {
        frame.level = (frame.level + 1) & 0x3FF;
        benchmark::DoNotOptimize(firmware::encodeFrame(frame));
    }
}
BENCHMARK(BM_FrameEncode);

void
BM_FrameDecode(benchmark::State &state)
{
    firmware::Frame frame;
    frame.sensorId = 3;
    frame.level = 777;
    const auto bytes = firmware::encodeFrame(frame);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            firmware::decodeFrame(bytes[0], bytes[1]));
    }
}
BENCHMARK(BM_FrameDecode);

void
BM_StreamParserFeed(benchmark::State &state)
{
    // One synthetic frame set: timestamp + 2 channels.
    std::vector<std::uint8_t> stream;
    std::uint64_t micros = 0;
    for (int i = 0; i < 1024; ++i) {
        micros += 50;
        auto push = [&](const firmware::Frame &f) {
            const auto b = firmware::encodeFrame(f);
            stream.push_back(b[0]);
            stream.push_back(b[1]);
        };
        push(firmware::makeTimestampFrame(micros));
        firmware::Frame data;
        data.sensorId = 0;
        data.level = 512;
        push(data);
        data.sensorId = 1;
        data.level = 700;
        push(data);
    }

    std::uint64_t sets = 0;
    host::StreamParser parser(
        [&](const host::FrameSet &) { ++sets; });
    for (auto _ : state) {
        parser.feed(stream.data(), stream.size());
        benchmark::DoNotOptimize(sets);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations())
        * static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_StreamParserFeed);

void
BM_RunningStatisticsAdd(benchmark::State &state)
{
    RunningStatistics stats;
    double v = 0.0;
    for (auto _ : state) {
        v += 0.001;
        stats.add(v);
        benchmark::DoNotOptimize(stats);
    }
}
BENCHMARK(BM_RunningStatisticsAdd);

void
BM_RingBufferPushPop(benchmark::State &state)
{
    RingBuffer<double> ring(4096);
    double v = 0.0;
    for (auto _ : state) {
        ring.push(v);
        v += 1.0;
        if (ring.full())
            benchmark::DoNotOptimize(ring.pop());
    }
}
BENCHMARK(BM_RingBufferPushPop);

/**
 * Device->host FIFO throughput with a producer thread feeding blocks
 * and the bench thread draining through the CharDevice read path.
 * Captured twice — mutex ByteQueue vs lock-free SPSC ring — so the
 * two backends are compared like for like.
 */
void
BM_ByteQueueThroughput(benchmark::State &state,
                       transport::PipeDevice::Backend backend)
{
    constexpr std::size_t kBlock = 4096;
    constexpr std::size_t kBlocksPerIter = 64;
    // Cap the backlog: the ring blocks at its capacity, the mutex
    // queue is unbounded and needs explicit producer throttling.
    constexpr std::size_t kBacklogCap = 1u << 20;

    transport::PipeDevice pipe(backend, 1u << 16);
    std::atomic<bool> stop{false};
    std::thread producer([&] {
        std::vector<std::uint8_t> block(kBlock, 0x5A);
        while (!stop.load(std::memory_order_acquire)) {
            if (pipe.buffered() > kBacklogCap) {
                std::this_thread::yield();
                continue;
            }
            pipe.deviceWrite(block.data(), block.size());
        }
    });

    std::vector<std::uint8_t> sink(kBlock);
    for (auto _ : state) {
        std::size_t got = 0;
        while (got < kBlock * kBlocksPerIter)
            got += pipe.read(sink.data(), sink.size(), 0.5);
    }
    stop.store(true, std::memory_order_release);
    pipe.closeFromDevice(); // unparks a producer blocked on a full ring
    producer.join();

    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations())
        * static_cast<std::int64_t>(kBlock * kBlocksPerIter));
}
// UseRealTime: the bench thread blocks in read() while the producer
// fills the FIFO, so CPU time vastly undercounts the elapsed wall
// time the transfer actually took.
BENCHMARK_CAPTURE(BM_ByteQueueThroughput, mutex,
                  transport::PipeDevice::Backend::MutexQueue)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_ByteQueueThroughput, spsc_ring,
                  transport::PipeDevice::Backend::LockFreeRing)
    ->UseRealTime();

/**
 * Full pipeline: firmware sample generation (analog physics included)
 * -> emulated link -> parser -> state update, in frame sets per
 * second. The counter output must exceed 20 k/s (real-time) by a
 * wide margin.
 */
void
BM_EndToEndPipeline(benchmark::State &state)
{
    auto rig = host::rigs::labBench(analog::modules::slot12V10A(),
                                    12.0, 8.0);
    auto sensor = rig.connect();
    for (auto _ : state) {
        sensor->waitForSamples(1000);
    }
    state.counters["frame_sets_per_s"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * 1000.0,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EndToEndPipeline)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/**
 * Firmware synthesis alone: Firmware::produce() on the seeded 3-pair
 * gpuRig (RTX 4000 Ada) running a ~2 700-kernel repeating program
 * with phase dips and decay tails, pulled in the 8192-byte bursts
 * the host reader asks for. ns_per_frame_set covers sensor and DUT
 * physics, ADC conversion and framing (no link, no parser).
 * BM_FirmwareSynthesisNoiseless runs the same rig without the
 * per-conversion Gaussian noise (36 draws per frame set); the
 * difference between the two is the cost of the noise.
 */
void
firmwareSynthesis(benchmark::State &state, analog::NoiseMode mode)
{
    host::rigs::RigOptions options;
    options.seed = 1;
    auto rig = host::rigs::gpuRig(dut::GpuSpec::rtx4000Ada(), options);
    std::vector<dut::KernelSchedule> program;
    double t = 0.0;
    for (unsigned k = 0; t < 1800.0; ++k) {
        t += 0.05 + 0.05 * (k % 8);
        const double duration = 0.1 + 0.1 * ((k * 5) % 8);
        program.push_back(
            {t, duration, 90.0 + 5.0 * ((k * 3) % 8), k % 5});
        t += duration;
    }
    rig.gpu->setProgram(std::move(program));
    rig.firmware->setNoiseMode(mode);

    const auto start = static_cast<std::uint8_t>(
        firmware::Command::StartStream);
    rig.firmware->hostWrite(&start, 1);
    std::vector<std::uint8_t> buffer(8192);
    const std::uint64_t sets0 = rig.firmware->frameSetsProduced();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            rig.firmware->produce(buffer.data(), buffer.size()));
    }
    const auto sets = static_cast<double>(
        rig.firmware->frameSetsProduced() - sets0);
    state.counters["frame_sets_per_s"] =
        benchmark::Counter(sets, benchmark::Counter::kIsRate);
    state.counters["ns_per_frame_set"] = benchmark::Counter(
        sets * 1e-9,
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void
BM_FirmwareSynthesis(benchmark::State &state)
{
    firmwareSynthesis(state, analog::NoiseMode::Full);
}
BENCHMARK(BM_FirmwareSynthesis)->Unit(benchmark::kMicrosecond);

void
BM_FirmwareSynthesisNoiseless(benchmark::State &state)
{
    firmwareSynthesis(state, analog::NoiseMode::Noiseless);
}
BENCHMARK(BM_FirmwareSynthesisNoiseless)->Unit(benchmark::kMicrosecond);

/**
 * Sensor-noise draws as the scan loop makes them: Rng::gaussianBlock
 * over 6-sample blocks (one channel's share of a scan block), in
 * ns_per_draw.
 */
void
BM_GaussianBlock(benchmark::State &state)
{
    Rng rng(1);
    std::array<double, 6> noise{};
    for (auto _ : state) {
        rng.gaussianBlock(noise.data(), noise.size(), 0.0, 0.03);
        benchmark::DoNotOptimize(noise.data());
        benchmark::ClobberMemory();
    }
    state.counters["ns_per_draw"] = benchmark::Counter(
        static_cast<double>(state.iterations() * noise.size()) * 1e-9,
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_GaussianBlock);

/**
 * Wire-level pipeline: pre-encoded 4-module frame sets pumped through
 * the SPSC-ring PipeDevice into a live PowerSensor (reader thread,
 * block-mode parser, calibrated state update). Unlike
 * BM_EndToEndPipeline there is no physics in the producer, so this
 * measures the transport + parser + host-state path alone — the
 * paper's "keep up with the stream using a lightweight thread"
 * requirement, scaled: the counter must exceed the 20 kHz real-time
 * frame-set rate by >= 100x (>= 2M sets/s).
 */
void
BM_PipelineEndToEnd(benchmark::State &state)
{
    using transport::PipeDevice;

    // 10-bit timestamps step 50 us per set, so the sequence repeats
    // every lcm(1024, 50)/50 = 512 sets: a 512-set template replays
    // seamlessly forever.
    constexpr unsigned kTemplateSets = 512;
    constexpr std::uint64_t kSetsPerIter = 100000;

    firmware::DeviceConfig config;
    for (unsigned ch = 0; ch < firmware::kNumChannels; ++ch) {
        auto &record = config[ch];
        record.name = "bench";
        record.inUse = true;
        if (firmware::isCurrentChannel(ch)) {
            record.vref = 1.65f;
            record.slope = 0.11f;
        } else {
            record.vref = 0.0f;
            record.slope = 0.25f;
        }
    }

    std::vector<std::uint8_t> tpl;
    tpl.reserve(kTemplateSets * (1 + firmware::kNumChannels) * 2);
    auto push = [&](const firmware::Frame &f) {
        const auto b = firmware::encodeFrame(f);
        tpl.push_back(b[0]);
        tpl.push_back(b[1]);
    };
    for (unsigned set = 0; set < kTemplateSets; ++set) {
        push(firmware::makeTimestampFrame(25 + 50ull * set));
        for (unsigned ch = 0; ch < firmware::kNumChannels; ++ch) {
            firmware::Frame frame;
            frame.sensorId = static_cast<std::uint8_t>(ch);
            frame.level =
                static_cast<std::uint16_t>((500 + 13 * set + ch)
                                           & 0x3FF);
            push(frame);
        }
    }

    PipeDevice pipe(PipeDevice::Backend::LockFreeRing, 1u << 16);
    firmware::WireStub stub(pipe, config);
    auto sensor = std::make_unique<host::PowerSensor>(pipe);

    std::atomic<bool> stop{false};
    std::thread pump([&] {
        while (!stop.load(std::memory_order_acquire))
            stub.send(tpl.data(), tpl.size()); // blocks on full ring
    });

    for (auto _ : state) {
        sensor->waitForSamples(kSetsPerIter);
    }

    stop.store(true, std::memory_order_release);
    pipe.closeFromDevice(); // unparks the pump, ends the stream
    pump.join();
    sensor.reset();

    state.counters["frame_sets_per_s"] = benchmark::Counter(
        static_cast<double>(state.iterations())
            * static_cast<double>(kSetsPerIter),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PipelineEndToEnd)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ----- dump pipeline ---------------------------------------------------

constexpr const char *kDumpHeader =
    "# PowerSensor3 continuous dump\n"
    "# sample_rate_hz 20000\n"
    "# columns: S time_s V0 I0 P0 total_W\n";

host::DumpRecord
makeDumpRecord(std::uint64_t i)
{
    host::DumpRecord r;
    r.time = static_cast<double>(i) * 50e-6;
    r.presentMask = 0x1;
    r.voltage[0] = 11.95 + 0.01 * static_cast<double>(i % 7);
    r.current[0] = 5.0 + 0.02 * static_cast<double>(i % 11);
    return r;
}

/**
 * Per-sample cost of live region attribution: one
 * EnergyAccountant::addSample with two regions open (the common
 * nested case) — the extra work the reader thread pays per 20 kHz
 * sample while an accountant is attached. The fold is a mutex
 * acquire plus a few adds per open region, so this must stay far
 * under the 50 us sample period.
 */
void
BM_RegionAttribution(benchmark::State &state)
{
    energy::EnergyAccountant acc;
    acc.addSample(0.0, 60.0);
    acc.addMarker('A', 0.0);
    acc.addMarker('B', 0.0);
    double t = 0.0;
    for (auto _ : state) {
        t += 50e-6;
        acc.addSample(t, 60.0);
    }
    benchmark::DoNotOptimize(acc.samplesSeen());
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RegionAttribution);

/**
 * Baseline: the synchronous dump path this PR replaced — snprintf
 * formatting plus an ofstream write per sample, on the calling
 * (reader) thread. Writes to /dev/null so only CPU cost is measured.
 */
void
BM_DumpWriteSync(benchmark::State &state)
{
    std::ofstream out("/dev/null");
    std::uint64_t i = 0;
    for (auto _ : state) {
        const host::DumpRecord r = makeDumpRecord(i++);
        char text[256];
        int n = std::snprintf(text, sizeof(text), "S %.6f", r.time);
        const double power = r.current[0] * r.voltage[0];
        n += std::snprintf(text + n, sizeof(text) - n,
                           " %.4f %.4f %.4f", r.voltage[0],
                           r.current[0], power);
        n += std::snprintf(text + n, sizeof(text) - n, " %.4f\n",
                           power);
        out.write(text, n);
        benchmark::DoNotOptimize(text);
    }
}
BENCHMARK(BM_DumpWriteSync);

/**
 * Producer-side cost of the asynchronous dump pipeline: one
 * DumpRecord push into the writer's ring (formatting and I/O happen
 * on the writer thread). DropOldest keeps the measurement free of
 * backpressure stalls; /dev/null keeps the drain far ahead anyway.
 */
void
BM_DumpWrite(benchmark::State &state, host::DumpFormat format)
{
    host::DumpWriter writer(
        "/dev/null", kDumpHeader,
        {.format = format,
         .overflow = host::DumpOverflow::DropOldest,
         .ringCapacity = 1u << 16});
    std::uint64_t i = 0;
    for (auto _ : state)
        writer.push(makeDumpRecord(i++));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_DumpWrite, BM_DumpWriteText,
                  host::DumpFormat::Text)
    ->Name("BM_DumpWriteText");
BENCHMARK_CAPTURE(BM_DumpWrite, BM_DumpWriteBinary,
                  host::DumpFormat::Binary)
    ->Name("BM_DumpWriteBinary");

std::string
makeDumpFixture(std::size_t samples)
{
    const std::string path =
        "/tmp/ps3_bench_dump."
        + std::to_string(static_cast<long>(::getpid())) + ".txt";
    host::DumpWriter writer(path, kDumpHeader,
                            {.format = host::DumpFormat::Text});
    for (std::size_t i = 0; i < samples; ++i)
        writer.push(makeDumpRecord(i));
    writer.close();
    return path;
}

/**
 * Baseline: the istringstream-per-line dump parser this PR replaced,
 * over the same 20 k-sample text fixture BM_DumpReaderLoad parses.
 */
void
BM_DumpReaderLoadIstream(benchmark::State &state)
{
    const std::string path = makeDumpFixture(20000);
    std::size_t samples = 0;
    for (auto _ : state) {
        std::ifstream in(path);
        std::string line;
        samples = 0;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::istringstream fields(line);
            char kind = '\0';
            fields >> kind;
            if (kind == 'M') {
                char marker;
                double time;
                fields >> marker >> time;
                continue;
            }
            double time;
            fields >> time;
            std::vector<double> values;
            double value;
            while (fields >> value)
                values.push_back(value);
            benchmark::DoNotOptimize(values);
            ++samples;
        }
    }
    benchmark::DoNotOptimize(samples);
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations())
        * static_cast<std::int64_t>(
            std::filesystem::file_size(path)));
    std::filesystem::remove(path);
}
BENCHMARK(BM_DumpReaderLoadIstream);

/** DumpFile::load (from_chars block scanner) on the same fixture. */
void
BM_DumpReaderLoad(benchmark::State &state)
{
    const std::string path = makeDumpFixture(20000);
    for (auto _ : state) {
        const auto file = host::DumpFile::load(path);
        benchmark::DoNotOptimize(file.samples().size());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations())
        * static_cast<std::int64_t>(
            std::filesystem::file_size(path)));
    std::filesystem::remove(path);
}
BENCHMARK(BM_DumpReaderLoad);

/**
 * BM_EndToEndPipeline with a continuous text dump enabled: the full
 * firmware->host pipeline while every sample also flows through the
 * asynchronous dump writer.
 */
void
BM_EndToEndPipelineDump(benchmark::State &state)
{
    const std::string path =
        "/tmp/ps3_bench_pipe_dump."
        + std::to_string(static_cast<long>(::getpid())) + ".txt";
    auto rig = host::rigs::labBench(analog::modules::slot12V10A(),
                                    12.0, 8.0);
    auto sensor = rig.connect();
    sensor->dump(path);
    for (auto _ : state) {
        sensor->waitForSamples(1000);
    }
    sensor->dump("");
    state.counters["frame_sets_per_s"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * 1000.0,
        benchmark::Counter::kIsRate);
    std::filesystem::remove(path);
}
BENCHMARK(BM_EndToEndPipelineDump)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/**
 * Raw broadcast-ring fan-out: one producer publishing pre-encoded
 * StreamSlots, 8 reader threads draining through their own cursors
 * and decoding every record out of its slot (net::readSlot) —
 * the transport layer below ps3d, no sockets, no handshake. The
 * ceiling the server-level fan-out benches chase. Batches stay under
 * the ring capacity with a drain barrier per iteration, so delivery
 * is lossless and the aggregate rate counts every record 8 times.
 */
void
BM_ShmFanout(benchmark::State &state)
{
    constexpr std::size_t kReaders = 8;
    constexpr std::size_t kCapacity = 1u << 16;
    constexpr std::uint64_t kBatch = 20000;

    auto segment = transport::ShmSegment::create(
        net::StreamRing::bytesRequired(kCapacity), "bench-ring");
    auto *ring = net::StreamRing::create(segment.data(),
                                         segment.size(), kCapacity);

    std::atomic<bool> stop{false};
    auto consumed =
        std::make_unique<std::atomic<std::uint64_t>[]>(kReaders);
    std::vector<std::unique_ptr<transport::BroadcastCursor>> cursors;
    for (std::size_t i = 0; i < kReaders; ++i)
        cursors.push_back(
            std::make_unique<transport::BroadcastCursor>());

    std::vector<std::thread> readers;
    for (std::size_t i = 0; i < kReaders; ++i) {
        readers.emplace_back([&, i] {
            transport::BroadcastCursor &cursor = *cursors[i];
            host::DumpRecord record;
            while (!stop.load(std::memory_order_acquire)) {
                const auto claim = cursor.claim(*ring, 256);
                if (claim.count == 0) {
                    std::this_thread::yield();
                    continue;
                }
                std::uint64_t delivered = 0;
                for (std::size_t r = 0; r < claim.count; ++r)
                    if (net::readSlot(*ring, claim.first + r, record)
                        == net::SlotRead::Ok)
                        ++delivered;
                benchmark::DoNotOptimize(record);
                consumed[i].fetch_add(delivered,
                                      std::memory_order_relaxed);
            }
        });
    }

    host::DumpRecord record;
    record.presentMask = 0x01;
    record.voltage[0] = 12.0;
    record.current[0] = 8.0;
    net::StreamSlot slot{};
    slot.encodedLen = net::encodeRecordTo(slot.encoded, record);

    std::uint64_t published = 0;
    for (auto _ : state) {
        for (std::uint64_t i = 0; i < kBatch; ++i) {
            ++published;
            ring->publish(slot);
        }
        for (std::size_t i = 0; i < kReaders; ++i)
            while (consumed[i].load(std::memory_order_relaxed)
                   < published)
                std::this_thread::yield();
    }
    stop.store(true, std::memory_order_release);
    for (auto &reader : readers)
        reader.join();

    state.counters["records_per_s"] = benchmark::Counter(
        static_cast<double>(state.iterations())
            * static_cast<double>(kBatch * kReaders),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ShmFanout)->Unit(benchmark::kMillisecond)->UseRealTime();

/** Blocking exact read for the bench-side PS3N handshake. */
void
benchReadFully(transport::SocketDevice &socket, std::uint8_t *out,
               std::size_t n)
{
    std::size_t got = 0;
    while (got < n)
        got += socket.read(out + got, n - got, 1.0);
}

/** Dial a shm:// endpoint: PS3N handshake + segment handover. */
std::pair<std::unique_ptr<transport::SocketDevice>,
          std::unique_ptr<net::ShmSubscriber>>
connectShm(const transport::Endpoint &endpoint)
{
    auto socket = transport::SocketDevice::connect(endpoint, 5.0);
    net::ClientHello hello;
    hello.overflow = transport::RingOverflow::DropOldest;
    const auto bytes = hello.encode();
    socket->write(bytes.data(), bytes.size());
    std::uint8_t prefix[net::kServerHelloPrefixSize];
    benchReadFully(*socket, prefix, sizeof prefix);
    net::ServerHello reply;
    const std::size_t payload =
        net::ServerHello::decodePrefix(prefix, sizeof prefix, reply);
    std::vector<std::uint8_t> body(payload);
    benchReadFully(*socket, body.data(), body.size());
    reply.decodePayload(body.data(), body.size());
    auto sub = net::ShmSubscriber::attach(*socket, 5.0);
    return {std::move(socket), std::move(sub)};
}

/**
 * ps3d fan-out over the shared-memory transport: a publish-driven
 * Ps3Server with 8 shm:// subscribers, each draining records through
 * its mapped ShmSubscriber — the daemon's whole data plane (encode
 * once, ring publish, handover, zero-syscall polls) to the
 * subscriber's record boundary. The full client-sensor stack on top
 * of a stream is BM_NetEndToEnd; the socket egress path is
 * BM_NetFanoutSockets. Batches stay under the ring capacity with a
 * drain barrier per iteration, so delivery is lossless.
 */
void
BM_NetFanout(benchmark::State &state)
{
    constexpr std::size_t kSubscribers = 8;
    constexpr std::uint64_t kBatch = 20000;

    firmware::DeviceConfig config{};
    config[0].inUse = true;
    config[1].inUse = true;

    net::Ps3Server::Options options;
    options.queueCapacity = 1u << 16;
    net::Ps3Server server(config, "bench", options);
    const std::string path =
        "/tmp/ps3_bench_fanout."
        + std::to_string(static_cast<long>(::getpid())) + ".sock";
    const auto endpoint =
        server.listen(transport::Endpoint::parse("shm://" + path));

    // The drain barrier tracks each reader's ring *position*, not a
    // delivered count: a subscriber that attaches after the first
    // publishes (or gets lapped) joins at a later sequence, so a
    // count-based barrier could never be satisfied.
    std::atomic<bool> stop{false};
    auto progress =
        std::make_unique<std::atomic<std::uint64_t>[]>(kSubscribers);
    std::vector<std::thread> readers;
    for (std::size_t i = 0; i < kSubscribers; ++i) {
        readers.emplace_back([&, i] {
            auto [socket, sub] = connectShm(endpoint);
            host::DumpRecord record;
            std::uint64_t seq = 0;
            for (;;) {
                switch (sub->poll(record, seq)) {
                case net::ShmSubscriber::Poll::Record:
                    progress[i].store(seq + 1,
                                      std::memory_order_relaxed);
                    break;
                case net::ShmSubscriber::Poll::Empty:
                    progress[i].store(sub->position(),
                                      std::memory_order_relaxed);
                    if (stop.load(std::memory_order_acquire))
                        return;
                    sub->backoff();
                    break;
                case net::ShmSubscriber::Poll::EndOfStream:
                    return;
                }
            }
        });
    }
    while (server.subscriberCount() < kSubscribers)
        std::this_thread::yield();

    host::DumpRecord record{};
    record.presentMask = 0x01;
    record.voltage[0] = 12.0;
    record.current[0] = 8.0;

    std::uint64_t published = 0;
    for (auto _ : state) {
        for (std::uint64_t i = 0; i < kBatch; ++i) {
            record.time = 50e-6 * static_cast<double>(published++);
            server.publish(record);
        }
        for (std::size_t i = 0; i < kSubscribers; ++i)
            while (progress[i].load(std::memory_order_relaxed)
                   < published)
                std::this_thread::yield();
    }
    stop.store(true, std::memory_order_release);
    server.stop();
    for (auto &reader : readers)
        reader.join();

    state.counters["records_per_s"] = benchmark::Counter(
        static_cast<double>(state.iterations())
            * static_cast<double>(kBatch * kSubscribers),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_NetFanout)->Unit(benchmark::kMillisecond)->UseRealTime();

/**
 * Socket fan-out throughput: a publish-driven Ps3Server feeding 8
 * draining NetPowerSensor subscribers over a Unix socket — the
 * writev gather-egress path plus the full client decode. A single
 * core moves ~2.5 GB/s through back-to-back Unix-socket sends, which
 * bounds this bench far below BM_NetFanout's mapped-ring numbers; at
 * 8 subscribers the server must still clear 160 k records/s to keep
 * every client at the 20 kHz stream rate, and the gate
 * (tools/bench_compare.py) keeps the headroom from regressing.
 */
void
BM_NetFanoutSockets(benchmark::State &state)
{
    constexpr std::size_t kSubscribers = 8;
    constexpr std::uint64_t kBatch = 1000;

    firmware::DeviceConfig config{};
    config[0].inUse = true;
    config[1].inUse = true;

    net::Ps3Server::Options options;
    options.queueCapacity = 1u << 16;
    net::Ps3Server server(config, "bench", options);
    const std::string path =
        "/tmp/ps3_bench_fanout_sock."
        + std::to_string(static_cast<long>(::getpid())) + ".sock";
    const auto endpoint =
        server.listen(transport::Endpoint::parse("unix://" + path));

    std::vector<std::unique_ptr<net::NetPowerSensor>> clients;
    for (std::size_t i = 0; i < kSubscribers; ++i)
        clients.push_back(
            std::make_unique<net::NetPowerSensor>(endpoint));
    while (server.subscriberCount() < kSubscribers)
        std::this_thread::yield();

    host::DumpRecord record{};
    record.presentMask = 0x01;
    record.voltage[0] = 12.0;
    record.current[0] = 8.0;

    std::uint64_t published = 0;
    for (auto _ : state) {
        for (std::uint64_t i = 0; i < kBatch; ++i) {
            record.time = 50e-6 * static_cast<double>(published++);
            server.publish(record);
        }
        for (auto &client : clients) {
            while (client->recordsReceived() < published)
                std::this_thread::yield();
        }
    }
    server.stop();

    state.counters["records_per_s"] = benchmark::Counter(
        static_cast<double>(state.iterations())
            * static_cast<double>(kBatch * kSubscribers),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_NetFanoutSockets)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/**
 * PS3N v1.2 tiered egress: a raw and a 1 kHz subscriber drink the
 * same 20 kHz publish stream. Gated on fold-and-ship throughput
 * (records_per_s); on top of that the bench asserts the tier's
 * reason to exist — the 1 kHz subscriber must receive >= 10x fewer
 * stream bytes than the raw one for the same records (the slim 'A'
 * record plus frame batching lands around 11x at one present pair;
 * docs/PROTOCOL.md). The reduction is reported as a plain counter.
 */
void
BM_NetTieredEgress(benchmark::State &state)
{
    constexpr std::uint64_t kBatch = 2000; // 100 buckets per iter

    firmware::DeviceConfig config{};
    config[0].inUse = true;
    config[1].inUse = true;

    net::Ps3Server::Options options;
    options.queueCapacity = 1u << 16;
    net::Ps3Server server(config, "bench", options);
    const std::string path =
        "/tmp/ps3_bench_tier."
        + std::to_string(static_cast<long>(::getpid())) + ".sock";
    const auto endpoint =
        server.listen(transport::Endpoint::parse("unix://" + path));

    net::NetPowerSensor raw_client(endpoint);
    net::NetPowerSensor::Options tier_options;
    tier_options.tier = host::Tier::Hz1000;
    net::NetPowerSensor tier_client(endpoint, tier_options);
    while (server.subscriberCount() < 2)
        std::this_thread::yield();

    host::DumpRecord record{};
    record.presentMask = 0x01;
    record.voltage[0] = 12.0;
    record.current[0] = 8.0;

    std::uint64_t published = 0;
    for (auto _ : state) {
        for (std::uint64_t i = 0; i < kBatch; ++i) {
            record.time = 50e-6 * static_cast<double>(published++);
            server.publish(record);
        }
        while (raw_client.recordsReceived() < published)
            std::this_thread::yield();
        // The newest bucket may still be open server-side.
        const std::uint64_t due = published / 20 - 1;
        while (tier_client.bucketsReceived() < due)
            std::this_thread::yield();
    }
    server.stop();
    while (!raw_client.deviceGone() || !tier_client.deviceGone())
        std::this_thread::yield();

    const double reduction =
        static_cast<double>(raw_client.bytesReceived())
        / static_cast<double>(tier_client.bytesReceived());
    if (reduction < 10.0)
        state.SkipWithError(
            "tiered egress bandwidth reduction below 10x");
    state.counters["records_per_s"] = benchmark::Counter(
        static_cast<double>(state.iterations())
            * static_cast<double>(kBatch),
        benchmark::Counter::kIsRate);
    state.counters["bandwidth_reduction_x"] =
        benchmark::Counter(reduction);
}
BENCHMARK(BM_NetTieredEgress)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/**
 * BM_EndToEndPipeline stretched across the network: firmware ->
 * link -> PowerSensor -> Ps3Server -> Unix socket -> NetPowerSensor
 * state update, in frame sets per second observed by the remote
 * client. Must beat 20 k/s with margin for `--connect` to be a
 * drop-in for local measurement.
 */
void
BM_NetEndToEnd(benchmark::State &state)
{
    auto rig = host::rigs::labBench(analog::modules::slot12V10A(),
                                    12.0, 8.0);
    auto sensor = rig.connect();
    net::Ps3Server server(*sensor);
    const std::string path =
        "/tmp/ps3_bench_net_e2e."
        + std::to_string(static_cast<long>(::getpid())) + ".sock";
    const auto endpoint =
        server.listen(transport::Endpoint::parse("unix://" + path));
    net::NetPowerSensor client(endpoint);

    for (auto _ : state) {
        client.waitForSamples(1000);
    }
    server.stop();

    state.counters["frame_sets_per_s"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * 1000.0,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_NetEndToEnd)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/**
 * Fleet-scale fan-out on one event-loop thread: a SensorRegistry
 * with 256 publish-driven sensors served by a FleetServer to 64 v2
 * connections, each subscribed to every sensor — 16384 multiplexed
 * streams over one epoll loop. Streams use Block overflow with
 * unlimited credit, so delivery is lossless and the per-iteration
 * barrier is an exact record count per connection. records_per_s is
 * total delivered records (published x sensors x subscribers), the
 * number the thread-per-subscriber design cannot reach (it would
 * need 16k sender threads to even start).
 */
void
BM_FleetFanout(benchmark::State &state)
{
    constexpr std::uint16_t kSensors = 256;
    constexpr std::size_t kSubscribers = 64;
    constexpr std::uint64_t kBatch = 4; // records/sensor/iteration

    firmware::DeviceConfig config{};
    config[0].inUse = true;

    net::SensorRegistry registry;
    for (std::uint16_t s = 0; s < kSensors; ++s)
        registry.addSimulated("fleet-" + std::to_string(s), config,
                              "bench", 20000.0, 256);

    net::FleetServer::Options options;
    options.maxSubscribers = kSubscribers;
    net::FleetServer server(registry, options);
    const std::string path =
        "/tmp/ps3_bench_fleet."
        + std::to_string(static_cast<long>(::getpid())) + ".sock";
    const auto endpoint =
        server.listen(transport::Endpoint::parse("unix://" + path));

    // Every stream must exist before the first publish (streams
    // join at the ring tail), so readers report ready only once all
    // their subscribe acks are in.
    std::atomic<bool> stop{false};
    std::atomic<std::size_t> ready{0};
    auto progress =
        std::make_unique<std::atomic<std::uint64_t>[]>(kSubscribers);
    std::vector<std::thread> readers;
    for (std::size_t i = 0; i < kSubscribers; ++i) {
        readers.emplace_back([&, i] {
            auto client = net::FleetClient::connect(endpoint, 5.0);
            for (std::uint16_t s = 0; s < kSensors; ++s)
                client->subscribe(
                    static_cast<std::uint16_t>(s + 1), s,
                    host::Tier::Raw, transport::RingOverflow::Block,
                    net::kUnlimitedCredit);
            net::FleetClient::Event event;
            std::size_t acked = 0;
            bool counted_ready = false;
            while (!stop.load(std::memory_order_acquire)) {
                if (!client->poll(event, 0.05)) {
                    if (client->closed())
                        return;
                    continue;
                }
                switch (event.kind) {
                case net::FleetClient::Event::Kind::SubscribeAck:
                    if (++acked == kSensors && !counted_ready) {
                        counted_ready = true;
                        ready.fetch_add(1,
                                        std::memory_order_release);
                    }
                    break;
                case net::FleetClient::Event::Kind::Records:
                    progress[i].fetch_add(
                        event.records.size(),
                        std::memory_order_relaxed);
                    break;
                case net::FleetClient::Event::Kind::
                    ConnectionClosed:
                    return;
                default:
                    break;
                }
            }
        });
    }
    while (ready.load(std::memory_order_acquire) < kSubscribers)
        std::this_thread::yield();

    host::DumpRecord record{};
    record.presentMask = 0x01;
    record.voltage[0] = 12.0;
    record.current[0] = 8.0;

    std::uint64_t published = 0; // per sensor
    for (auto _ : state) {
        for (std::uint64_t k = 0; k < kBatch; ++k) {
            record.time = 50e-6 * static_cast<double>(published++);
            for (std::uint16_t s = 0; s < kSensors; ++s)
                registry.publish(s, record);
        }
        const std::uint64_t due = published * kSensors;
        for (std::size_t i = 0; i < kSubscribers; ++i)
            while (progress[i].load(std::memory_order_relaxed)
                   < due)
                std::this_thread::yield();
    }
    stop.store(true, std::memory_order_release);
    for (auto &reader : readers)
        reader.join();
    registry.stopAll();
    server.stop();

    state.counters["records_per_s"] = benchmark::Counter(
        static_cast<double>(state.iterations())
            * static_cast<double>(kBatch * kSensors * kSubscribers),
        benchmark::Counter::kIsRate);
    state.counters["streams"] = benchmark::Counter(
        static_cast<double>(kSensors) * kSubscribers);
}
BENCHMARK(BM_FleetFanout)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

} // namespace

/**
 * Custom main: like BENCHMARK_MAIN(), plus an optional
 * --bench_json=PATH flag writing the stable comparison schema
 * consumed by tools/bench_compare.py.
 */
int
main(int argc, char **argv)
{
    std::string json_path;
    std::vector<char *> args;
    args.push_back(argv[0]);
    const std::string prefix = "--bench_json=";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind(prefix, 0) == 0)
            json_path = arg.substr(prefix.size());
        else
            args.push_back(argv[i]);
    }
    int args_count = static_cast<int>(args.size());
    benchmark::Initialize(&args_count, args.data());
    if (benchmark::ReportUnrecognizedArguments(args_count,
                                               args.data()))
        return 1;

    // The JSON writer rides on the display-reporter slot (tee'd with
    // the console): the library's file-reporter slot insists on its
    // own --benchmark_out flag owning the output stream.
    benchmark::ConsoleReporter console;
    if (json_path.empty()) {
        benchmark::RunSpecifiedBenchmarks(&console);
    } else {
        ps3::bench::JsonFileReporter json(json_path);
        ps3::bench::TeeReporter tee(console, json);
        benchmark::RunSpecifiedBenchmarks(&tee);
    }
    benchmark::Shutdown();
    return 0;
}
