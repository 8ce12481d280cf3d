/**
 * @file
 * Unit tests for the GPU / SoC phase power models, including program
 * and scale swaps racing a producing firmware.
 */

#include <atomic>
#include <cmath>
#include <thread>

#include <gtest/gtest.h>

#include "analog/sensor_module_spec.hpp"
#include "common/errors.hpp"
#include "dut/gpu_model.hpp"
#include "firmware/firmware.hpp"

namespace ps3::dut {
namespace {

TEST(GpuSpec, FactoriesMatchPaperCards)
{
    const auto nv = GpuSpec::rtx4000Ada();
    EXPECT_EQ(nv.envelope, LaunchEnvelope::StepAndRamp);
    EXPECT_NEAR(nv.launchPower, 95.0, 1.0);
    EXPECT_NEAR(nv.sustainedPower, 120.0, 1.0);
    EXPECT_GT(nv.decayTau, 0.3); // over a second to idle

    const auto amd = GpuSpec::w7700();
    EXPECT_EQ(amd.envelope, LaunchEnvelope::SpikeDropRamp);
    EXPECT_DOUBLE_EQ(amd.powerLimit, 150.0);
    EXPECT_LT(amd.decayTau, nv.decayTau); // faster return to idle

    const auto jetson = GpuSpec::jetsonAgxOrinModule();
    EXPECT_LT(jetson.powerLimit, 100.0);
}

TEST(GpuSpec, TuningVariantLocksClocks)
{
    const auto variant = GpuSpec::rtx4000Ada().tuningVariant();
    EXPECT_EQ(variant.envelope, LaunchEnvelope::Instant);
    EXPECT_DOUBLE_EQ(variant.phaseDipDepth, 0.0);
    EXPECT_LT(variant.decayTau, 0.05);
}

TEST(GpuDutModel, IdleBeforeAnyKernel)
{
    GpuDutModel gpu(GpuSpec::rtx4000Ada());
    EXPECT_DOUBLE_EQ(gpu.totalPower(0.0),
                     GpuSpec::rtx4000Ada().idlePower);
    EXPECT_DOUBLE_EQ(gpu.totalPower(100.0),
                     GpuSpec::rtx4000Ada().idlePower);
}

TEST(GpuDutModel, StepAndRampEnvelope)
{
    const auto spec = GpuSpec::rtx4000Ada();
    GpuDutModel gpu(spec);
    gpu.launchKernel(1.0, 3.0, 120.0);

    EXPECT_DOUBLE_EQ(gpu.totalPower(0.5), spec.idlePower);
    // Right after launch: near the launch power.
    EXPECT_NEAR(gpu.totalPower(1.0 + 1e-4), spec.launchPower, 1.0);
    // One ramp tau in: ~63% of the way to sustained.
    const double expected =
        spec.launchPower
        + (120.0 - spec.launchPower) * (1.0 - std::exp(-1.0));
    EXPECT_NEAR(gpu.totalPower(1.0 + spec.rampTau), expected, 0.5);
    // Late in the kernel: sustained.
    EXPECT_NEAR(gpu.totalPower(3.8), 120.0, 1.5);
}

TEST(GpuDutModel, SpikeDropRampEnvelope)
{
    const auto spec = GpuSpec::w7700();
    GpuDutModel gpu(spec);
    gpu.launchKernel(0.0, 2.0, 150.0);

    // Spike at the limit.
    EXPECT_NEAR(gpu.totalPower(0.01), spec.powerLimit, 1e-9);
    // Drop after the spike.
    EXPECT_NEAR(gpu.totalPower(spec.spikeDuration + 1e-3),
                spec.dropPower, 3.0);
    // Overshoot: at some point power exceeds the sustained level.
    double peak_after_drop = 0.0;
    for (double t = spec.spikeDuration + 0.05; t < 1.0; t += 1e-3)
        peak_after_drop = std::max(peak_after_drop,
                                   gpu.totalPower(t));
    EXPECT_GT(peak_after_drop, 150.0);
    EXPECT_LE(peak_after_drop, 150.0 * 1.04 + 1e-9);
    // Stabilised at the limit.
    EXPECT_NEAR(gpu.totalPower(1.9), 150.0, 2.0);
}

TEST(GpuDutModel, InstantEnvelope)
{
    const auto spec = GpuSpec::rtx4000Ada().tuningVariant();
    GpuDutModel gpu(spec);
    gpu.launchKernel(1.0, 0.01, 80.0);
    EXPECT_NEAR(gpu.totalPower(1.0 + 1e-5), 80.0, 1e-9);
    EXPECT_NEAR(gpu.totalPower(1.009), 80.0, 1e-9);
}

TEST(GpuDutModel, PhaseDipsAppearBetweenPhases)
{
    const auto spec = GpuSpec::rtx4000Ada();
    GpuDutModel gpu(spec);
    gpu.launchKernel(0.0, 2.0, 120.0, /*phases=*/4);

    // Phase period 0.5 s; a dip right after each boundary except
    // the first.
    const double dip = gpu.totalPower(0.5 + spec.phaseDipDuration / 2);
    const double steady = gpu.totalPower(0.5 - 0.01);
    EXPECT_NEAR(steady - dip, spec.phaseDipDepth, 1.0);
    // No dip at the very start.
    EXPECT_NEAR(gpu.totalPower(1e-4), spec.launchPower, 1.0);
}

TEST(GpuDutModel, DecaysBetweenAndAfterKernels)
{
    const auto spec = GpuSpec::rtx4000Ada();
    GpuDutModel gpu(spec);
    gpu.launchKernel(0.0, 1.0, 120.0);

    const double end_power = gpu.totalPower(1.0);
    const double one_tau = gpu.totalPower(1.0 + spec.decayTau);
    EXPECT_NEAR(one_tau - spec.idlePower,
                (end_power - spec.idlePower) * std::exp(-1.0), 0.5);
    EXPECT_NEAR(gpu.totalPower(10.0), spec.idlePower, 0.1);
}

TEST(GpuDutModel, ProgramValidation)
{
    GpuDutModel gpu(GpuSpec::rtx4000Ada());
    EXPECT_THROW(gpu.setProgram({{0.0, -1.0, 100.0, 0}}),
                 UsageError);
    EXPECT_THROW(gpu.setProgram({{0.0, 1.0, 100.0, 0},
                                 {0.5, 1.0, 100.0, 0}}),
                 UsageError);
    gpu.launchKernel(0.0, 1.0, 100.0);
    EXPECT_THROW(gpu.launchKernel(0.5, 1.0, 100.0), UsageError);
    gpu.launchKernel(2.0, 1.0, 100.0); // after the first: fine
}

TEST(GpuDutModel, ZeroSustainedUsesSpecDefault)
{
    const auto spec = GpuSpec::rtx4000Ada();
    GpuDutModel gpu(spec);
    gpu.launchKernel(0.0, 5.0, 0.0);
    EXPECT_NEAR(gpu.totalPower(4.9), spec.sustainedPower, 1.5);
}

TEST(GpuDutModel, ClearProgramReturnsToIdle)
{
    GpuDutModel gpu(GpuSpec::rtx4000Ada().tuningVariant());
    gpu.launchKernel(0.0, 100.0, 99.0);
    EXPECT_GT(gpu.totalPower(50.0), 90.0);
    gpu.clearProgram();
    EXPECT_DOUBLE_EQ(gpu.totalPower(50.0),
                     gpu.spec().idlePower);
}

TEST(GpuDutModel, MultiKernelProgramSelectsCorrectKernel)
{
    GpuDutModel gpu(GpuSpec::rtx4000Ada().tuningVariant());
    gpu.setProgram({{1.0, 0.5, 50.0, 0}, {2.0, 0.5, 90.0, 0}});
    EXPECT_NEAR(gpu.totalPower(1.25), 50.0, 1e-9);
    EXPECT_NEAR(gpu.totalPower(2.25), 90.0, 1e-9);
    // Gap between kernels: decaying from the first one.
    const double gap = gpu.totalPower(1.6);
    EXPECT_LT(gap, 50.0);
    EXPECT_GT(gap, gpu.spec().idlePower - 1e-9);
}

TEST(GpuDutModel, RailSplitRespectsPcieBudgets)
{
    GpuDutModel gpu(GpuSpec::rtx4000Ada(),
                    TraceDut::pcieThreeRail());
    gpu.launchKernel(0.0, 10.0, 120.0);
    const double t = 9.0;
    const double total = gpu.totalPower(t);
    double sum = 0.0;
    for (unsigned rail = 0; rail < gpu.railCount(); ++rail) {
        const double amps =
            gpu.current(rail, t, rail == 0 ? 3.3 : 12.0);
        sum += amps * (rail == 0 ? 3.3 : 12.0);
    }
    EXPECT_NEAR(sum, total, 1e-6);
    EXPECT_LE(gpu.current(0, t, 3.3) * 3.3, 9.9 + 1e-9);
    EXPECT_THROW(gpu.current(3, t, 12.0), UsageError);
}

TEST(GpuDutModel, ConcurrentReadsWhileRescheduling)
{
    // The firmware thread reads while the tuner swaps programs; the
    // atomic shared_ptr snapshot must never tear or throw.
    GpuDutModel gpu(GpuSpec::rtx4000Ada().tuningVariant());
    std::atomic<bool> stop{false};
    std::thread reader([&] {
        double t = 0.0;
        while (!stop.load()) {
            const double p = gpu.totalPower(t);
            ASSERT_GE(p, 0.0);
            ASSERT_LE(p, 200.0);
            t += 1e-5;
        }
    });
    for (int i = 0; i < 2000; ++i) {
        gpu.setProgram({{i * 1.0, 0.5, 50.0 + i % 50, 0}});
    }
    stop.store(true);
    reader.join();
}

/**
 * Forwards to a GPU model and counts blocks whose elements disagree.
 * The racing programs hold one locked-clock kernel covering all
 * time, so every program/scale pair draws a flat power: a block that
 * mixed two snapshots would show two levels.
 */
class SnapshotCheckingDut : public Dut
{
  public:
    explicit SnapshotCheckingDut(std::shared_ptr<GpuDutModel> gpu)
        : gpu_(std::move(gpu))
    {
    }

    unsigned railCount() const override { return gpu_->railCount(); }

    void demandBlock(unsigned rail, const double *times, std::size_t n,
                     double *watts, double *amps) override
    {
        gpu_->demandBlock(rail, times, n, watts, amps);
        for (std::size_t i = 1; i < n; ++i) {
            if (watts[i] != watts[0])
                mixed.fetch_add(1, std::memory_order_relaxed);
        }
        blocks.fetch_add(1, std::memory_order_relaxed);
    }

    double truePower(double t) override { return gpu_->truePower(t); }

    std::atomic<std::uint64_t> blocks{0};
    std::atomic<std::uint64_t> mixed{0};

  private:
    std::shared_ptr<GpuDutModel> gpu_;
};

TEST(GpuSnapshotRace, SwapsRacingAProducingFirmwareLandBetweenBlocks)
{
    auto gpu = std::make_shared<GpuDutModel>(
        GpuSpec::rtx4000Ada().tuningVariant());
    gpu->setProgram({{0.0, 1e6, 100.0, 0}});
    auto checker = std::make_shared<SnapshotCheckingDut>(gpu);

    firmware::Firmware fw;
    for (unsigned pair = 0; pair < 3; ++pair) {
        fw.attachModule(pair, firmware::makeModule(
                                  analog::modules::slot12V10A(), checker,
                                  pair, std::make_shared<SupplyModel>(12.0),
                                  pair + 1));
    }
    const std::uint8_t start = 'S';
    fw.hostWrite(&start, 1);

    std::atomic<bool> stop{false};
    std::atomic<bool> stopped{false};
    std::thread producer([&] {
        std::uint8_t buffer[4096];
        while (!stop.load(std::memory_order_relaxed)
               && fw.produce(buffer, sizeof(buffer)) != 0) {
        }
        stopped.store(true);
    });
    // Swap program and scale back to back until the firmware has
    // resolved 3000 more blocks (six channels per frame set).
    auto blocks = [&] {
        return checker->blocks.load(std::memory_order_relaxed);
    };
    while (blocks() == 0 && !stopped.load())
        std::this_thread::yield();
    const std::uint64_t until = blocks() + 3000;
    std::uint64_t swaps = 0;
    while (blocks() < until && !stopped.load()) {
        gpu->setProgram({{0.0, 1e6, 60.0 + (swaps % 7) * 10.0, 0}});
        gpu->setPowerScale(swaps % 2 ? 0.5 : 1.0);
        ++swaps;
    }
    stop.store(true);
    producer.join();

    EXPECT_GE(blocks(), until);
    EXPECT_GT(swaps, 0u);
    EXPECT_EQ(checker->mixed.load(), 0u);
}

TEST(SocDutModel, AddsCarrierBoardPower)
{
    SocDutModel soc(GpuSpec::jetsonAgxOrinModule(), 4.8, 20.0);
    const double module_idle =
        GpuSpec::jetsonAgxOrinModule().idlePower;
    EXPECT_DOUBLE_EQ(soc.modulePower(0.0), module_idle);
    EXPECT_DOUBLE_EQ(soc.truePower(0.0), module_idle + 4.8);
    EXPECT_NEAR(soc.current(0, 0.0, 20.0) * 20.0,
                module_idle + 4.8, 1e-9);
    EXPECT_THROW(soc.current(1, 0.0, 20.0), UsageError);
}

TEST(SocDutModel, ModuleKernelVisibleOnUsbC)
{
    SocDutModel soc(GpuSpec::jetsonAgxOrinModule().tuningVariant(),
                    4.8, 20.0);
    soc.module().launchKernel(0.0, 1.0, 40.0);
    EXPECT_NEAR(soc.truePower(0.5), 44.8, 1e-9);
}

} // namespace
} // namespace ps3::dut
