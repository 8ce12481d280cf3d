/**
 * @file
 * Unit and integration tests for the PowerSensor host class: state
 * arithmetic, dump files, configuration round-trips, calibration,
 * fault tolerance and disconnect handling.
 */

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/errors.hpp"
#include "firmware/wire_stub.hpp"
#include "host/calibrator.hpp"
#include "host/sim_setup.hpp"
#include "transport/fault_injection.hpp"
#include "transport/pipe_device.hpp"

namespace ps3::host {
namespace {

TEST(StateMath, JoulesWattsSeconds)
{
    State a, b;
    a.timeAtRead = 1.0;
    b.timeAtRead = 3.0;
    a.consumedEnergy = {10.0, 0.0, 5.0, 0.0};
    b.consumedEnergy = {30.0, 0.0, 9.0, 0.0};
    b.present = {true, false, true, false};
    a.present = b.present;

    EXPECT_DOUBLE_EQ(seconds(a, b), 2.0);
    EXPECT_DOUBLE_EQ(Joules(a, b), 24.0);
    EXPECT_DOUBLE_EQ(Joules(a, b, 0), 20.0);
    EXPECT_DOUBLE_EQ(Joules(a, b, 2), 4.0);
    EXPECT_DOUBLE_EQ(Watts(a, b), 12.0);
    EXPECT_DOUBLE_EQ(Watts(a, b, 2), 2.0);
    EXPECT_THROW(Joules(a, b, 7), UsageError);
    EXPECT_THROW(Watts(b, a), UsageError); // non-positive interval
}

TEST(StateMath, PowerHelpers)
{
    State s;
    s.present = {true, true, false, false};
    s.current = {2.0, 1.0, 9.0, 0.0};
    s.voltage = {12.0, 3.3, 9.0, 0.0};
    EXPECT_DOUBLE_EQ(s.power(0), 24.0);
    EXPECT_NEAR(s.totalPower(), 24.0 + 3.3, 1e-12);

    Sample sample;
    sample.present = s.present;
    sample.current = s.current;
    sample.voltage = s.voltage;
    EXPECT_NEAR(sample.totalPower(), 27.3, 1e-12);
}

TEST(PowerSensorTest, ReportsPairMetadata)
{
    auto rig = rigs::labBench(analog::modules::slot3V3_10A(), 3.3,
                              2.0);
    auto sensor = rig.connect();
    EXPECT_EQ(sensor->activePairs(), 1u);
    EXPECT_TRUE(sensor->pairPresent(0));
    EXPECT_FALSE(sensor->pairPresent(1));
    EXPECT_EQ(sensor->pairName(0), "3.3V-10A");
    EXPECT_THROW(sensor->pairPresent(9), UsageError);
    EXPECT_THROW(sensor->pairName(9), UsageError);
}

TEST(PowerSensorTest, EnergyIntegrationMatchesAnalyticValue)
{
    auto rig = rigs::labBench(analog::modules::slot12V10A(), 12.0,
                              4.0);
    auto sensor = rig.connect();
    const auto first = sensor->read();
    ASSERT_TRUE(sensor->waitForSamples(20000));
    const auto second = sensor->read();
    const double dt = seconds(first, second);
    // 4 A at ~11.96 V, within the sensor's budget.
    EXPECT_NEAR(Joules(first, second), 4.0 * 11.96 * dt,
                1.5 * dt);
}

TEST(PowerSensorTest, DumpFileFormat)
{
    const std::string path = "/tmp/ps3_test_dump.txt";
    std::filesystem::remove(path);
    {
        auto rig = rigs::labBench(analog::modules::slot12V10A(),
                                  12.0, 2.0);
        auto sensor = rig.connect();
        sensor->dump(path);
        EXPECT_TRUE(sensor->dumping());
        sensor->mark('k');
        sensor->waitForSamples(4000);
        sensor->dump("");
        EXPECT_FALSE(sensor->dumping());
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    unsigned s_lines = 0, m_lines = 0, comments = 0;
    double last_time = -1.0;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        if (line[0] == '#') {
            ++comments;
        } else if (line[0] == 'S') {
            ++s_lines;
            double t, v, i, p, total;
            ASSERT_EQ(std::sscanf(line.c_str(),
                                  "S %lf %lf %lf %lf %lf", &t, &v,
                                  &i, &p, &total),
                      5)
                << line;
            EXPECT_GT(t, last_time);
            last_time = t;
            EXPECT_NEAR(p, v * i, 1e-3);
            EXPECT_NEAR(total, p, 1e-3);
        } else if (line[0] == 'M') {
            ++m_lines;
            EXPECT_EQ(line[2], 'k');
        }
    }
    EXPECT_GE(comments, 3u);
    EXPECT_GT(s_lines, 3000u);
    EXPECT_EQ(m_lines, 1u);
    std::filesystem::remove(path);
}

TEST(PowerSensorTest, DumpToUnwritablePathThrows)
{
    auto rig = rigs::labBench(analog::modules::slot12V10A(), 12.0,
                              1.0);
    auto sensor = rig.connect();
    EXPECT_THROW(sensor->dump("/nonexistent-dir/x.txt"), UsageError);
}

TEST(PowerSensorTest, WriteConfigRoundTripsAndDisablesPair)
{
    auto rig = rigs::labBench(analog::modules::slot12V10A(), 12.0,
                              3.0);
    auto sensor = rig.connect();
    ASSERT_TRUE(sensor->waitForSamples(100));

    auto config = sensor->config();
    config[0].name = "tweaked";
    config[1].name = "tweaked";
    sensor->writeConfig(config);
    EXPECT_EQ(sensor->pairName(0), "tweaked");
    // The firmware's EEPROM saw the write too.
    EXPECT_EQ(rig.firmware->eeprom().loadChannel(0).name, "tweaked");

    // Disabling both channels removes the pair from the stream.
    config[0].inUse = false;
    config[1].inUse = false;
    sensor->writeConfig(config);
    // Once disabled, no channels stream: state time freezes.
    const auto s1 = sensor->read();
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    const auto s2 = sensor->read();
    EXPECT_EQ(s1.sampleCount, s2.sampleCount);
    EXPECT_EQ(sensor->activePairs(), 0u);
}

TEST(PowerSensorTest, ListenerLifecycle)
{
    auto rig = rigs::labBench(analog::modules::slot12V10A(), 12.0,
                              1.0);
    auto sensor = rig.connect();
    EXPECT_THROW(sensor->addSampleListener(nullptr), UsageError);

    unsigned count_a = 0;
    const auto token = sensor->addSampleListener(
        [&](const Sample &) { ++count_a; });
    ASSERT_TRUE(sensor->waitForSamples(100));
    sensor->removeSampleListener(token);
    const unsigned frozen = count_a;
    ASSERT_TRUE(sensor->waitForSamples(100));
    EXPECT_EQ(count_a, frozen);
}

TEST(PowerSensorTest, UnexpectedMarkerGetsPlaceholderChar)
{
    // Inject a marker at the firmware level without going through
    // PowerSensor::mark(), so the host has no queued character.
    auto rig = rigs::labBench(analog::modules::slot12V10A(), 12.0,
                              1.0);
    auto sensor = rig.connect();
    char seen = '\0';
    const auto token = sensor->addSampleListener(
        [&](const Sample &s) {
            if (s.marker)
                seen = s.markerChar;
        });
    const std::uint8_t cmd[] = {'M', 'q'};
    rig.firmware->hostWrite(cmd, 2);
    ASSERT_TRUE(sensor->waitForSamples(4000));
    sensor->removeSampleListener(token);
    EXPECT_EQ(seen, '?');
}

TEST(PowerSensorTest, SurvivesFaultyLinkWithBoundedLoss)
{
    auto rig = rigs::labBench(analog::modules::slot12V10A(), 12.0,
                              5.0);
    transport::FaultProfile profile;
    profile.corruptProbability = 0.001;
    profile.dropProbability = 0.0005;
    transport::FaultInjectingDevice faulty(*rig.port, profile, 3);
    PowerSensor sensor(faulty);

    ASSERT_TRUE(sensor.waitForSamples(40000));
    const auto state = sensor.read();
    // Resync events happened but the data kept flowing and stayed
    // credible.
    EXPECT_GT(sensor.resyncByteCount(), 0u);
    EXPECT_GT(faulty.faultCount(), 0u);
    EXPECT_NEAR(state.voltage[0], 11.95, 0.4);
    EXPECT_NEAR(state.current[0], 5.0, 0.5);
}

TEST(PowerSensorTest, DeviceDisappearanceIsReported)
{
    auto rig = rigs::labBench(analog::modules::slot12V10A(), 12.0,
                              1.0);
    auto sensor = rig.connect();
    ASSERT_TRUE(sensor->waitForSamples(100));
    rig.port->disconnect();
    EXPECT_FALSE(sensor->waitUntil(1e9));
    EXPECT_TRUE(sensor->deviceGone());
    EXPECT_FALSE(sensor->waitForSamples(100000));
}

TEST(PowerSensorTest, ConnectingToDeadPortThrows)
{
    auto rig = rigs::labBench(analog::modules::slot12V10A(), 12.0,
                              1.0);
    rig.port->disconnect();
    EXPECT_THROW(PowerSensor sensor(*rig.port), DeviceError);
}

TEST(CalibratorTest, RemovesOffsetAndGainErrors)
{
    // Build an *uncalibrated* rig with significant spread; the
    // guided procedure must recover accuracy. The rig's pair-0 spread
    // is typical(seed * 101): take the first seed from 21 on whose
    // current offset is large enough to see.
    rigs::RigOptions options;
    options.seed = 21;
    while (options.seed < 121
           && std::abs(firmware::ManufacturingSpread::typical(
                           options.seed * 101)
                           .currentOffsetAmps)
                  < 0.05)
        ++options.seed;
    ASSERT_LT(options.seed, 121u) << "no seed with a 50 mA offset";
    options.factoryCalibrated = false;
    auto rig = rigs::labBench(analog::modules::slot12V10A(), 12.0,
                              /*load_amps=*/0.0, options);
    auto sensor = rig.connect();

    Calibrator calibrator(*sensor);
    const auto result =
        calibrator.calibratePair(0, 12.0, /*samples=*/20000);
    // The injected spread is visible before calibration...
    EXPECT_GT(std::abs(result.offsetAmpsBefore), 0.01);
    calibrator.apply();

    // ...and reduced afterwards: re-measure the offset.
    Calibrator verify(*sensor);
    const auto after = verify.calibratePair(0, 12.0, 20000);
    EXPECT_LT(std::abs(after.offsetAmpsBefore), 0.01);
    EXPECT_LT(std::abs(after.voltageGainErrorBefore), 0.002);

    // Loaded accuracy after calibration: 8 A x ~12 V.
    rig.load->setAmps(8.0);
    ASSERT_TRUE(sensor->waitForSamples(4096));
    const auto s1 = sensor->read();
    ASSERT_TRUE(sensor->waitForSamples(20000));
    const auto s2 = sensor->read();
    EXPECT_NEAR(Watts(s1, s2), 8.0 * 11.92, 1.5);
}

TEST(CalibratorTest, ValidatesArguments)
{
    auto rig = rigs::labBench(analog::modules::slot12V10A(), 12.0,
                              0.0);
    auto sensor = rig.connect();
    Calibrator calibrator(*sensor);
    EXPECT_THROW(calibrator.calibratePair(9, 12.0), UsageError);
    EXPECT_THROW(calibrator.calibratePair(1, 12.0), UsageError);
    EXPECT_THROW(calibrator.calibratePair(0, -5.0), UsageError);
}

TEST(SimSetupTest, RigFactoriesProduceWorkingSensors)
{
    {
        auto rig = rigs::gpuRig(dut::GpuSpec::rtx4000Ada());
        auto sensor = rig.connect();
        EXPECT_EQ(sensor->activePairs(), 3u);
        ASSERT_TRUE(sensor->waitForSamples(100));
        EXPECT_NEAR(sensor->read().totalPower(),
                    dut::GpuSpec::rtx4000Ada().idlePower, 3.0);
    }
    {
        auto rig = rigs::socRig(dut::GpuSpec::jetsonAgxOrinModule());
        auto sensor = rig.connect();
        EXPECT_EQ(sensor->activePairs(), 1u);
        ASSERT_TRUE(sensor->waitForSamples(100));
        EXPECT_NEAR(sensor->read().totalPower(), 9.0 + 4.8, 3.0);
    }
    {
        auto rig = rigs::traceRig({{0.0, 5.0}, {10.0, 5.0}},
                                  dut::TraceDut::m2AdapterRails());
        auto sensor = rig.connect();
        EXPECT_EQ(sensor->activePairs(), 2u);
        // Average over an interval: a single 3.3 V sample carries
        // ~0.2 W of Hall noise.
        const auto s1 = sensor->read();
        ASSERT_TRUE(sensor->waitForSamples(8000));
        const auto s2 = sensor->read();
        EXPECT_NEAR(Watts(s1, s2), 5.0, 0.3);
    }
}

TEST(PowerSensorTest, DestructorReturnsPromptlyWithIdleStream)
{
    // With no data flowing the reader thread parks inside a blocking
    // read. The destructor must interrupt that wait instead of riding
    // out the 50 ms read timeout (the device's interruptReads() hook).
    transport::PipeDevice pipe(
        transport::PipeDevice::Backend::LockFreeRing, 1u << 12);
    firmware::DeviceConfig config;
    firmware::WireStub stub(pipe, config);

    auto sensor = std::make_unique<PowerSensor>(pipe);
    EXPECT_TRUE(stub.streaming());

    // Let the reader reach its steady-state blocking read.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

    const auto start = std::chrono::steady_clock::now();
    sensor.reset();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now()
                                      - start)
            .count();
    EXPECT_LT(elapsed, 0.040);
    EXPECT_FALSE(stub.streaming()); // StopStream reached the device
}

TEST(PowerSensorTest, ControlCallsGetTheMutexFromABusyReader)
{
    // A pipe fed at the device's rate (20 sets per ms): the reader
    // holds the control mutex across its blocking read and takes it
    // straight back after every chunk. Control calls must still get
    // it: back-to-back version queries all return (the ctest timeout
    // is the guard).
    constexpr std::size_t kCapacity = 1u << 16;
    transport::PipeDevice pipe(
        transport::PipeDevice::Backend::LockFreeRing, kCapacity);
    firmware::DeviceConfig config;
    config[0].inUse = config[1].inUse = true;
    firmware::WireStub stub(pipe, config);

    std::vector<std::uint8_t> chunk;
    for (unsigned set = 0; set < 20; ++set) {
        const auto stamp = firmware::encodeFrame(
            firmware::makeTimestampFrame(25 + 50ull * set));
        chunk.insert(chunk.end(), stamp.begin(), stamp.end());
        for (unsigned ch = 0; ch < firmware::kNumChannels; ++ch) {
            firmware::Frame frame;
            frame.sensorId = static_cast<std::uint8_t>(ch);
            frame.level = static_cast<std::uint16_t>(300 + ch);
            const auto bytes = firmware::encodeFrame(frame);
            chunk.insert(chunk.end(), bytes.begin(), bytes.end());
        }
    }

    auto sensor = std::make_unique<PowerSensor>(pipe);
    std::atomic<bool> stop{false};
    std::thread pump([&] {
        // Never wait for ring room (WireStub::stream).
        while (!stop.load(std::memory_order_acquire)) {
            if (pipe.buffered() + chunk.size() <= kCapacity / 2)
                stub.stream(chunk.data(), chunk.size());
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    });

    ASSERT_TRUE(sensor->waitForSamples(1000));
    constexpr int kCalls = 20;
    for (int i = 0; i < kCalls; ++i)
        EXPECT_EQ(sensor->firmwareVersion(), firmware::firmwareVersion());
    // The stream resumes after every call.
    EXPECT_TRUE(stub.streaming());
    EXPECT_TRUE(sensor->waitForSamples(1000));

    // An idle pipe: the reader parks in its read with the mutex held.
    stop.store(true, std::memory_order_release);
    pump.join();
    for (int i = 0; i < kCalls; ++i)
        EXPECT_EQ(sensor->firmwareVersion(), firmware::firmwareVersion());
    sensor.reset();
}

TEST(PowerSensorTest, ConcurrentMarkersFromManyThreadsAllResolve)
{
    // mark() is documented lock-free and callable from any thread,
    // including sample listeners on the reader thread itself. Spin
    // four threads marking concurrently and check every accepted
    // marker comes back flagged on a sample exactly once.
    auto rig = rigs::labBench(analog::modules::slot12V10A(), 12.0,
                              2.0);
    auto sensor = rig.connect();

    constexpr int kThreads = 4;
    constexpr int kPerThread = 32; // stays under the 256-slot queue
    std::atomic<int> seen{0};
    const auto token =
        sensor->addSampleListener([&](const Sample &sample) {
            if (sample.marker)
                seen.fetch_add(1, std::memory_order_relaxed);
        });

    std::vector<std::thread> markers;
    for (int t = 0; t < kThreads; ++t) {
        markers.emplace_back([&sensor] {
            for (int i = 0; i < kPerThread; ++i) {
                sensor->mark('a' + (i % 26));
                // Yield so markers spread across frame sets instead
                // of racing the queue depth.
                std::this_thread::yield();
            }
        });
    }
    for (auto &thread : markers)
        thread.join();

    // One marker resolves per frame set, so give the stream time to
    // work through the backlog.
    const auto deadline = std::chrono::steady_clock::now()
                          + std::chrono::seconds(20);
    while (seen.load() < kThreads * kPerThread
           && std::chrono::steady_clock::now() < deadline)
        ASSERT_TRUE(sensor->waitForSamples(256));
    sensor->removeSampleListener(token);
    EXPECT_EQ(seen.load(), kThreads * kPerThread);
}

} // namespace
} // namespace ps3::host
