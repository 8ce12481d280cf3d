/**
 * @file
 * Unit tests for the firmware emulation: EEPROM, command handling,
 * streaming, timing, markers, fences, display and reboot.
 */

#include <cstdio>
#include <filesystem>

#include <gtest/gtest.h>

#include "analog/sensor_module_spec.hpp"
#include "common/errors.hpp"
#include "dut/gpu_model.hpp"
#include "dut/loads.hpp"
#include "firmware/firmware.hpp"
#include "host/sim_setup.hpp"
#include "host/stream_parser.hpp"

namespace ps3::firmware {
namespace {

/** Build a firmware with one 12 V / 10 A module on a constant load. */
std::unique_ptr<Firmware>
makeBenchFirmware(double amps = 2.0, const std::string &eeprom = "")
{
    auto fw = std::make_unique<Firmware>(eeprom);
    auto load = std::make_shared<dut::ConstantCurrentLoad>(amps, 12.0);
    auto supply = std::make_shared<dut::SupplyModel>(12.0);
    fw->attachModule(0,
                     makeModule(analog::modules::slot12V10A(), load,
                                0, supply, /*seed=*/1));
    return fw;
}

void
sendByte(Firmware &fw, char c)
{
    const auto byte = static_cast<std::uint8_t>(c);
    fw.hostWrite(&byte, 1);
}

std::vector<std::uint8_t>
drain(Firmware &fw, std::size_t max = 1 << 20)
{
    std::vector<std::uint8_t> out;
    std::uint8_t buffer[4096];
    while (out.size() < max) {
        const std::size_t got =
            fw.produce(buffer, std::min(sizeof(buffer),
                                        max - out.size()));
        if (got == 0)
            break;
        out.insert(out.end(), buffer, buffer + got);
    }
    return out;
}

TEST(VirtualEepromTest, VolatileStoreRoundTrips)
{
    VirtualEeprom eeprom;
    SensorConfigRecord record;
    record.name = "abc";
    record.vref = 1.5f;
    record.inUse = true;
    eeprom.storeChannel(3, record);
    EXPECT_EQ(eeprom.loadChannel(3), record);
    EXPECT_THROW(eeprom.loadChannel(8), UsageError);
    EXPECT_THROW(eeprom.storeChannel(99, record), UsageError);
}

TEST(VirtualEepromTest, PersistsAcrossInstances)
{
    const std::string path = "/tmp/ps3_test_eeprom.bin";
    std::filesystem::remove(path);
    {
        VirtualEeprom eeprom(path);
        SensorConfigRecord record;
        record.name = "persisted";
        record.slope = 0.132f;
        record.inUse = true;
        eeprom.storeChannel(0, record);
    }
    VirtualEeprom restored(path);
    EXPECT_EQ(restored.loadChannel(0).name, "persisted");
    EXPECT_FLOAT_EQ(restored.loadChannel(0).slope, 0.132f);
    std::filesystem::remove(path);
}

TEST(VirtualEepromTest, IgnoresCorruptBackingFile)
{
    const std::string path = "/tmp/ps3_test_eeprom_bad.bin";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    std::fputs("garbage", f);
    std::fclose(f);
    VirtualEeprom eeprom(path); // must not throw
    EXPECT_FALSE(eeprom.loadChannel(0).inUse);
    std::filesystem::remove(path);
}

TEST(FirmwareTest, SilentUntilStreamingStarts)
{
    auto fw = makeBenchFirmware();
    std::uint8_t buffer[64];
    EXPECT_EQ(fw->produce(buffer, sizeof(buffer)), 0u);
    EXPECT_FALSE(fw->streaming());
    sendByte(*fw, 'S');
    EXPECT_TRUE(fw->streaming());
    EXPECT_GT(fw->produce(buffer, sizeof(buffer)), 0u);
    sendByte(*fw, 'P');
    EXPECT_FALSE(fw->streaming());
}

TEST(FirmwareTest, FrameSetTimingIsExactly50us)
{
    auto fw = makeBenchFirmware();
    sendByte(*fw, 'S');
    drain(*fw, 6 * 1000);
    // Each frame set advances the clock by exactly 50 us regardless
    // of module population.
    const double per_set =
        fw->clock().now()
        / static_cast<double>(fw->frameSetsProduced());
    EXPECT_NEAR(per_set, 50e-6, 1e-12);
}

TEST(FirmwareTest, StreamStructureParses)
{
    auto fw = makeBenchFirmware(5.0);
    sendByte(*fw, 'S');
    const auto bytes = drain(*fw, 6 * 100);

    unsigned sets = 0;
    host::StreamParser parser([&](const host::FrameSet &set) {
        ++sets;
        EXPECT_TRUE(set.valid[0]); // current channel
        EXPECT_TRUE(set.valid[1]); // voltage channel
        EXPECT_FALSE(set.valid[2]);
    });
    parser.feed(bytes.data(), bytes.size());
    EXPECT_GT(sets, 90u);
    EXPECT_EQ(parser.resyncByteCount(), 0u);
}

TEST(FirmwareTest, DisabledChannelsAreNotTransmitted)
{
    auto fw = makeBenchFirmware();
    auto config = fw->eeprom().load();
    config[1].inUse = false; // disable the voltage channel
    fw->eeprom().store(config);
    fw->refreshConfigFromEeprom();

    sendByte(*fw, 'S');
    const auto bytes = drain(*fw, 4 * 100);
    host::StreamParser parser([&](const host::FrameSet &set) {
        EXPECT_TRUE(set.valid[0]);
        EXPECT_FALSE(set.valid[1]);
    });
    parser.feed(bytes.data(), bytes.size());
    EXPECT_GT(parser.frameSetCount(), 50u);
}

TEST(FirmwareTest, ConfigReadWriteOverTheWire)
{
    auto fw = makeBenchFirmware();

    sendByte(*fw, 'R');
    auto response = drain(*fw);
    ASSERT_EQ(response.size(), 1 + kConfigBlobSize);
    EXPECT_EQ(response[0], kAck);
    auto config =
        deserializeConfig(response.data() + 1, kConfigBlobSize);
    EXPECT_EQ(config[0].name, "12V-10A");

    // Write a modified configuration back.
    config[0].name = "renamed";
    sendByte(*fw, 'W');
    const auto blob = serializeConfig(config);
    fw->hostWrite(blob.data(), blob.size());
    response = drain(*fw);
    ASSERT_EQ(response.size(), 1u);
    EXPECT_EQ(response[0], kAck);
    EXPECT_EQ(fw->eeprom().loadChannel(0).name, "renamed");
}

TEST(FirmwareTest, ConfigWriteWithBadChecksumNacks)
{
    auto fw = makeBenchFirmware();
    sendByte(*fw, 'W');
    auto blob = serializeConfig(fw->eeprom().load());
    blob.back() ^= 0xFF;
    fw->hostWrite(blob.data(), blob.size());
    const auto response = drain(*fw);
    ASSERT_EQ(response.size(), 1u);
    EXPECT_EQ(response[0], kNack);
}

TEST(FirmwareTest, ConfigCommandsRejectedWhileStreaming)
{
    auto fw = makeBenchFirmware();
    sendByte(*fw, 'S');
    drain(*fw, 64);
    sendByte(*fw, 'R');
    // The NACK is queued behind stream data; stop and inspect the
    // tail byte.
    sendByte(*fw, 'P');
    const auto bytes = drain(*fw);
    ASSERT_FALSE(bytes.empty());
    EXPECT_EQ(bytes.back(), kNack);
}

TEST(FirmwareTest, VersionQuery)
{
    auto fw = makeBenchFirmware();
    sendByte(*fw, 'V');
    const auto response = drain(*fw);
    ASSERT_GT(response.size(), 2u);
    EXPECT_EQ(response[0], kAck);
    const std::size_t len = response[1];
    ASSERT_EQ(response.size(), 2 + len);
    EXPECT_EQ(std::string(response.begin() + 2, response.end()),
              firmwareVersion());
}

TEST(FirmwareTest, TimeSyncReportsClockMicros)
{
    auto fw = makeBenchFirmware();
    sendByte(*fw, 'S');
    drain(*fw, 6 * 500); // advance the clock a bit
    sendByte(*fw, 'P');
    drain(*fw);

    sendByte(*fw, 'T');
    const auto response = drain(*fw);
    ASSERT_EQ(response.size(), 9u);
    EXPECT_EQ(response[0], kAck);
    std::uint64_t micros = 0;
    for (int i = 8; i >= 1; --i)
        micros = (micros << 8) | response[static_cast<size_t>(i)];
    EXPECT_NEAR(static_cast<double>(micros),
                fw->clock().now() * 1e6, 2.0);
}

TEST(FirmwareTest, UnknownCommandNacks)
{
    auto fw = makeBenchFirmware();
    sendByte(*fw, 'Z');
    const auto response = drain(*fw);
    ASSERT_EQ(response.size(), 1u);
    EXPECT_EQ(response[0], kNack);
}

TEST(FirmwareTest, MarkerFlagsOneFrameSetPerRequest)
{
    auto fw = makeBenchFirmware();
    sendByte(*fw, 'S');
    drain(*fw, 6 * 10);
    // Two markers queued back-to-back flag two consecutive sets.
    const std::uint8_t m1[] = {'M', 'a'};
    const std::uint8_t m2[] = {'M', 'b'};
    fw->hostWrite(m1, 2);
    fw->hostWrite(m2, 2);
    const auto bytes = drain(*fw, 6 * 10);

    unsigned flagged = 0;
    host::StreamParser parser([&](const host::FrameSet &set) {
        if (set.marker)
            ++flagged;
    });
    parser.feed(bytes.data(), bytes.size());
    EXPECT_EQ(flagged, 2u);
}

TEST(FirmwareTest, ProductionFenceStopsTime)
{
    auto fw = makeBenchFirmware();
    sendByte(*fw, 'S');
    const double fence = 0.01;
    fw->setProductionFence(fence);
    drain(*fw);
    EXPECT_LE(fw->clock().now(), fence + 60e-6);
    // Moving the fence resumes production.
    fw->setProductionFence(0.02);
    EXPECT_FALSE(drain(*fw).empty());
    EXPECT_GT(fw->clock().now(), fence);
}

TEST(FirmwareTest, RebootClearsStateButKeepsEeprom)
{
    auto fw = makeBenchFirmware();
    sendByte(*fw, 'S');
    drain(*fw, 64);
    sendByte(*fw, 'B');
    EXPECT_FALSE(fw->streaming());
    EXPECT_FALSE(fw->inDfuMode());
    const auto response = drain(*fw);
    ASSERT_EQ(response.size(), 1u); // tx queue was cleared, ack only
    EXPECT_EQ(response[0], kAck);
    EXPECT_EQ(fw->eeprom().loadChannel(0).name, "12V-10A");

    sendByte(*fw, 'D');
    EXPECT_TRUE(fw->inDfuMode());
}

TEST(FirmwareTest, DisplayShowsLoadPower)
{
    auto fw = makeBenchFirmware(5.0);
    sendByte(*fw, 'S');
    // Display refreshes every 2000 frame sets (10 Hz at 20 kHz).
    drain(*fw, 6 * 2100);
    EXPECT_GE(fw->display().updateCount(), 1u);
    EXPECT_NEAR(fw->display().totalPower(), 60.0, 3.0);
    const auto lines = fw->display().render();
    ASSERT_EQ(lines.size(), 1 + kPairCount);
    EXPECT_NE(lines[0].find("W"), std::string::npos);
    EXPECT_NE(lines[1].find("A"), std::string::npos);
    EXPECT_NE(lines[2].find("--"), std::string::npos);
}

TEST(FirmwareTest, AttachModuleValidation)
{
    auto fw = makeBenchFirmware();
    auto load = std::make_shared<dut::ConstantCurrentLoad>(1.0, 12.0);
    auto supply = std::make_shared<dut::SupplyModel>(12.0);
    EXPECT_THROW(fw->attachModule(
                     4, makeModule(analog::modules::slot12V10A(),
                                   load, 0, supply, 1)),
                 UsageError);
}

TEST(FirmwareTest, ManufacturingSpreadIsDeterministic)
{
    const auto a = ManufacturingSpread::typical(5);
    const auto b = ManufacturingSpread::typical(5);
    const auto c = ManufacturingSpread::typical(6);
    EXPECT_DOUBLE_EQ(a.currentOffsetAmps, b.currentOffsetAmps);
    EXPECT_NE(a.currentOffsetAmps, c.currentOffsetAmps);
    EXPECT_LE(std::abs(a.currentOffsetAmps), 0.15);
    EXPECT_LE(std::abs(a.currentGainError), 0.003);
    EXPECT_LE(std::abs(a.voltageGainError), 0.01);
}


// ----- Golden streams -----------------------------------------------
//
// The FNV-1a hash of the first kGoldenBytes the firmware emits on
// four seeded rigs. Any change to the sensor, ADC or DUT physics
// that alters even one bit of the stream moves a hash, so these pin
// refactors and optimisations of the synthesis path to the exact
// output of the code they replace. The values depend on the libm
// exp/cos/sin results of the platform (x86-64 glibc here).

constexpr std::size_t kGoldenBytes = 256 * 1024;

std::uint64_t
fnv1a(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t hash = 14695981039346656037ull;
    for (std::uint8_t b : bytes) {
        hash ^= b;
        hash *= 1099511628211ull;
    }
    return hash;
}

std::uint64_t
goldenHash(host::SimulatedRig &rig)
{
    sendByte(*rig.firmware, 'S');
    const auto bytes = drain(*rig.firmware, kGoldenBytes);
    EXPECT_EQ(bytes.size(), kGoldenBytes);
    return fnv1a(bytes);
}

host::rigs::RigOptions
goldenOptions(std::uint64_t seed)
{
    host::rigs::RigOptions options;
    options.seed = seed;
    return options;
}

TEST(FirmwareGolden, GpuRigKernelProgram)
{
    // 0.94 s of device time: idle until the first kernel, phase dips
    // (5 and 3 phases), decay tails between kernels and after the last.
    auto rig = host::rigs::gpuRig(dut::GpuSpec::rtx4000Ada(),
                                  goldenOptions(11));
    rig.gpu->setProgram({{0.02, 0.25, 110.0, 5},
                         {0.40, 0.12, 0.0, 3},
                         {0.60, 0.20, 95.0, 0}});
    EXPECT_EQ(goldenHash(rig), 0xdaf49007f727f9b2ull);
}

TEST(FirmwareGolden, SocRig)
{
    auto rig = host::rigs::socRig(dut::GpuSpec::jetsonAgxOrinModule(),
                                  4.8, goldenOptions(12));
    rig.soc->module().setProgram({{0.10, 0.80, 0.0, 4},
                                  {1.20, 0.50, 40.0, 0}});
    EXPECT_EQ(goldenHash(rig), 0x50e75c0005a3c537ull);
}

TEST(FirmwareGolden, LabBenchSquareWave)
{
    auto rig = host::rigs::labBench(analog::modules::slot12V10A(), 12.0,
                                    8.0, goldenOptions(13));
    rig.load->modulate(dut::LoadWaveform::Square, 100.0, 0.5);
    EXPECT_EQ(goldenHash(rig), 0x124a46398b13d06eull);
}

TEST(FirmwareGolden, TraceRig)
{
    // Starts after t = 0 (clamped head), holds a zero-width step at
    // 0.2 s and ends before the stream does (clamped tail).
    auto rig = host::rigs::traceRig(
        {{0.05, 2.0}, {0.2, 6.5}, {0.2, 3.0}, {0.7, 8.0}, {1.0, 1.0}},
        dut::TraceDut::m2AdapterRails(), goldenOptions(14));
    EXPECT_EQ(goldenHash(rig), 0xad5dc96cd98e431aull);
}

// The same four rigs with the sensor noise switched off: no Gaussian
// draws enter the stream, so these pin the DUT, filter, ADC and
// framing bit for bit apart from the per-conversion noise. The
// generator still reaches them through the uniform draws made once
// per rig (manufacturing spread, thermal drift phase).

std::uint64_t
noiselessGoldenHash(host::SimulatedRig &rig)
{
    rig.firmware->setNoiseMode(analog::NoiseMode::Noiseless);
    return goldenHash(rig);
}

TEST(FirmwareGolden, GpuRigKernelProgramNoiseless)
{
    auto rig = host::rigs::gpuRig(dut::GpuSpec::rtx4000Ada(),
                                  goldenOptions(11));
    rig.gpu->setProgram({{0.02, 0.25, 110.0, 5},
                         {0.40, 0.12, 0.0, 3},
                         {0.60, 0.20, 95.0, 0}});
    EXPECT_EQ(noiselessGoldenHash(rig), 0xbf28a38147ee3a55ull);
}

TEST(FirmwareGolden, SocRigNoiseless)
{
    auto rig = host::rigs::socRig(dut::GpuSpec::jetsonAgxOrinModule(),
                                  4.8, goldenOptions(12));
    rig.soc->module().setProgram({{0.10, 0.80, 0.0, 4},
                                  {1.20, 0.50, 40.0, 0}});
    EXPECT_EQ(noiselessGoldenHash(rig), 0xc814f79f1bd2c435ull);
}

TEST(FirmwareGolden, LabBenchSquareWaveNoiseless)
{
    auto rig = host::rigs::labBench(analog::modules::slot12V10A(), 12.0,
                                    8.0, goldenOptions(13));
    rig.load->modulate(dut::LoadWaveform::Square, 100.0, 0.5);
    EXPECT_EQ(noiselessGoldenHash(rig), 0x1b9c4ce4b379b512ull);
}

TEST(FirmwareGolden, TraceRigNoiseless)
{
    auto rig = host::rigs::traceRig(
        {{0.05, 2.0}, {0.2, 6.5}, {0.2, 3.0}, {0.7, 8.0}, {1.0, 1.0}},
        dut::TraceDut::m2AdapterRails(), goldenOptions(14));
    EXPECT_EQ(noiselessGoldenHash(rig), 0x6d1d1b4e58cba0e8ull);
}

} // namespace
} // namespace ps3::firmware
