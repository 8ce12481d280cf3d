/**
 * @file
 * Unit tests for the DUT electrical models: supplies, rail bindings,
 * loads, trace playback, rail splitting, and the block demand entry
 * (Dut::demandBlock) against per-sample current() for every model.
 */

#include <cmath>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "common/errors.hpp"
#include "dut/cpu_model.hpp"
#include "dut/dut.hpp"
#include "dut/gpu_model.hpp"
#include "dut/loads.hpp"
#include "storage/ssd_dut.hpp"

namespace ps3::dut {
namespace {

TEST(SupplyModel, DroopsUnderLoad)
{
    SupplyModel supply(12.0, 0.05);
    EXPECT_DOUBLE_EQ(supply.voltage(0.0, 0.0), 12.0);
    EXPECT_DOUBLE_EQ(supply.voltage(0.0, 10.0), 11.5);
    supply.setVolts(5.0);
    EXPECT_DOUBLE_EQ(supply.voltage(0.0, 0.0), 5.0);
}

TEST(SupplyModel, RejectsNegativeResistance)
{
    EXPECT_THROW(SupplyModel(12.0, -0.1), UsageError);
}

TEST(RailBinding, ResolvesOperatingPoint)
{
    auto load = std::make_shared<ConstantCurrentLoad>(8.0, 12.0);
    auto supply = std::make_shared<SupplyModel>(12.0, 0.01);
    RailBinding binding(load, 0, supply);
    double volts = 0.0, amps = 0.0;
    binding.resolve(1.0, volts, amps);
    EXPECT_DOUBLE_EQ(amps, 8.0);
    EXPECT_NEAR(volts, 12.0 - 0.08, 1e-9);
}

TEST(RailBinding, ValidatesArguments)
{
    auto load = std::make_shared<ConstantCurrentLoad>(1.0, 12.0);
    auto supply = std::make_shared<SupplyModel>(12.0);
    EXPECT_THROW(RailBinding(nullptr, 0, supply), UsageError);
    EXPECT_THROW(RailBinding(load, 0, nullptr), UsageError);
    EXPECT_THROW(RailBinding(load, 1, supply), UsageError);
}

TEST(ConstantCurrentLoad, BasicBehaviour)
{
    ConstantCurrentLoad load(3.0, 12.0);
    EXPECT_EQ(load.railCount(), 1u);
    EXPECT_DOUBLE_EQ(load.current(0, 0.0, 12.0), 3.0);
    EXPECT_DOUBLE_EQ(load.truePower(0.0), 36.0);
    load.setAmps(-2.0);
    EXPECT_DOUBLE_EQ(load.current(0, 5.0, 12.0), -2.0);
    EXPECT_THROW(load.current(1, 0.0, 12.0), UsageError);
}

TEST(ElectronicLoad, ConstantMode)
{
    ElectronicLoad load(8.0, 12.0);
    EXPECT_DOUBLE_EQ(load.current(0, 0.123, 12.0), 8.0);
    load.setAmps(2.5);
    EXPECT_DOUBLE_EQ(load.current(0, 0.5, 12.0), 2.5);
}

TEST(ElectronicLoad, SquareWaveLevelsAndDuty)
{
    ElectronicLoad load(8.0, 12.0);
    load.modulate(LoadWaveform::Square, 100.0, 0.5);
    // High phase at the start of each period, low in the second
    // half. Sample away from edges.
    EXPECT_DOUBLE_EQ(load.targetCurrent(0.002), 8.0);
    EXPECT_DOUBLE_EQ(load.targetCurrent(0.007), 4.0);
    EXPECT_DOUBLE_EQ(load.targetCurrent(0.012), 8.0);
}

TEST(ElectronicLoad, MinimumCurrentClampsLowPhase)
{
    ElectronicLoad load(8.0, 12.0);
    load.setMinimumCurrent(3.3);
    load.modulate(LoadWaveform::Square, 100.0, 0.9);
    EXPECT_DOUBLE_EQ(load.targetCurrent(0.007), 3.3);
}

TEST(ElectronicLoad, SlewLimitedEdgesFormTrapezoid)
{
    const double slew = 1e5; // 0.1 A/us
    ElectronicLoad load(8.0, 12.0, slew);
    load.modulate(LoadWaveform::Square, 100.0, 0.5);
    // Rise time (8 - 4) / 1e5 = 40 us. Halfway through the rise the
    // current must be halfway up.
    const double i_mid = load.current(0, 20e-6, 12.0);
    EXPECT_NEAR(i_mid, 6.0, 1e-9);
    // Well past the rise: settled at the high level.
    EXPECT_DOUBLE_EQ(load.current(0, 100e-6, 12.0), 8.0);
    // Falling edge at T/2 = 5 ms.
    EXPECT_NEAR(load.current(0, 5e-3 + 20e-6, 12.0), 6.0, 1e-9);
}

TEST(ElectronicLoad, SineWaveSpansLevels)
{
    ElectronicLoad load(8.0, 12.0);
    load.modulate(LoadWaveform::Sine, 50.0, 0.5);
    double min = 1e9, max = -1e9;
    for (double t = 0.0; t < 0.04; t += 1e-4) {
        const double i = load.current(0, t, 12.0);
        min = std::min(min, i);
        max = std::max(max, i);
    }
    EXPECT_NEAR(min, 4.0, 0.05);
    EXPECT_NEAR(max, 8.0, 0.05);
}

TEST(ElectronicLoad, ValidatesModulation)
{
    ElectronicLoad load(8.0, 12.0);
    EXPECT_THROW(load.modulate(LoadWaveform::Square, 0.0, 0.5),
                 UsageError);
    EXPECT_THROW(load.modulate(LoadWaveform::Square, 100.0, 1.5),
                 UsageError);
    EXPECT_THROW(ElectronicLoad(1.0, 12.0, 0.0), UsageError);
}

TEST(TraceDut, InterpolatesLinearly)
{
    TraceDut trace({{0.0, 10.0}, {1.0, 20.0}, {3.0, 20.0}},
                   TraceDut::singleRail12V());
    EXPECT_DOUBLE_EQ(trace.truePower(-1.0), 10.0); // clamped left
    EXPECT_DOUBLE_EQ(trace.truePower(0.5), 15.0);
    EXPECT_DOUBLE_EQ(trace.truePower(2.0), 20.0);
    EXPECT_DOUBLE_EQ(trace.truePower(9.0), 20.0); // clamped right
}

TEST(TraceDut, CurrentFollowsPowerOverVoltage)
{
    TraceDut trace({{0.0, 24.0}}, TraceDut::singleRail12V());
    EXPECT_DOUBLE_EQ(trace.current(0, 0.0, 12.0), 2.0);
    EXPECT_DOUBLE_EQ(trace.current(0, 0.0, 0.0), 0.0); // guard
}

TEST(TraceDut, ValidatesInput)
{
    EXPECT_THROW(TraceDut({}, TraceDut::singleRail12V()),
                 UsageError);
    EXPECT_THROW(TraceDut({{1.0, 5.0}, {0.5, 5.0}},
                          TraceDut::singleRail12V()),
                 UsageError);
    EXPECT_THROW(TraceDut({{0.0, 5.0}}, {}), UsageError);
    TraceDut ok({{0.0, 5.0}}, TraceDut::singleRail12V());
    EXPECT_THROW(ok.current(1, 0.0, 12.0), UsageError);
}

TEST(SplitRailPower, PcieThreeRailBudgets)
{
    const auto rails = TraceDut::pcieThreeRail();
    // Low power: split by fractions, nothing capped.
    const double total_low = 50.0;
    const double p33 = splitRailPower(rails, 0, total_low);
    const double p12 = splitRailPower(rails, 1, total_low);
    const double pext = splitRailPower(rails, 2, total_low);
    EXPECT_NEAR(p33, 50.0 * 0.08, 1e-9);
    EXPECT_NEAR(p12, 50.0 * 0.5, 1e-9);
    EXPECT_NEAR(p33 + p12 + pext, total_low, 1e-9);

    // High power: slot rails cap out, the external connector takes
    // the remainder (PCIe CEM behaviour the paper describes).
    const double total_high = 300.0;
    EXPECT_NEAR(splitRailPower(rails, 0, total_high), 9.9, 1e-9);
    EXPECT_NEAR(splitRailPower(rails, 1, total_high), 66.0, 1e-9);
    EXPECT_NEAR(splitRailPower(rails, 2, total_high),
                300.0 - 9.9 - 66.0, 1e-9);
}

TEST(SplitRailPower, ConservesTotalForAnyLoad)
{
    const auto rails = TraceDut::pcieThreeRail();
    for (double total = 0.0; total <= 600.0; total += 17.0) {
        double sum = 0.0;
        for (unsigned rail = 0; rail < rails.size(); ++rail)
            sum += splitRailPower(rails, rail, total);
        EXPECT_NEAR(sum, total, 1e-9) << "total=" << total;
    }
}

TEST(SplitRailPower, M2AdapterRoutesBulkTo3V3)
{
    const auto rails = TraceDut::m2AdapterRails();
    const double total = 6.0;
    const double p12 = splitRailPower(rails, 0, total);
    const double p33 = splitRailPower(rails, 1, total);
    EXPECT_LE(p12, 0.4 + 1e-9);
    EXPECT_NEAR(p12 + p33, total, 1e-9);
    EXPECT_GT(p33, 5.0);
}

// ----- Block demand vs per-sample current ---------------------------

/** Spacing of one channel's conversions in a scan block (8 x 25
 *  cycles at 24 MHz). */
constexpr double kScanSpacing = 8 * 25.0 / 24e6;

/** A firmware-like scan block of n conversions from t0. */
std::vector<double>
scanBlock(double t0, std::size_t n = 6, double spacing = kScanSpacing)
{
    std::vector<double> times(n);
    for (std::size_t i = 0; i < n; ++i)
        times[i] = t0 + static_cast<double>(i) * spacing;
    return times;
}

/**
 * Blocks straddling each edge (a block ending just after it, one
 * starting exactly on it, one holding it twice), plus one long block
 * spanning every edge.
 */
std::vector<std::vector<double>>
blocksAround(const std::vector<double> &edges, double span)
{
    std::vector<std::vector<double>> blocks;
    for (double e : edges) {
        blocks.push_back(scanBlock(e - 20e-6));
        blocks.push_back(scanBlock(e));
        blocks.push_back({e - kScanSpacing, e, e, e + 1e-9, e + 1e-3});
    }
    blocks.push_back(scanBlock(0.0, 400, span / 400.0));
    return blocks;
}

/**
 * Every element of a demandBlock() resolves to exactly the current
 * that current() reports for that instant, at positive, zero and
 * negative rail voltages; `reference`, when given, is the rail's
 * power-law draw at t, which current() must divide by the voltage.
 */
void
expectBlockMatchesSamples(Dut &dut, unsigned rail,
                          const std::vector<double> &times,
                          const std::function<double(double)> &reference)
{
    std::vector<double> watts(times.size(), -1.0);
    std::vector<double> amps(times.size(), -1.0);
    dut.demandBlock(rail, times.data(), times.size(), watts.data(),
                    amps.data());
    for (std::size_t i = 0; i < times.size(); ++i) {
        const double t = times[i];
        for (double volts : {12.0, 3.3, 0.0, -1.0}) {
            const double per_sample = dut.current(rail, t, volts);
            EXPECT_EQ(railCurrent(watts[i], amps[i], volts), per_sample)
                << "rail " << rail << " t=" << t << " V=" << volts;
            if (reference) {
                EXPECT_EQ(per_sample,
                          volts > 0.0 ? reference(t) / volts : 0.0)
                    << "rail " << rail << " t=" << t << " V=" << volts;
            }
        }
    }
}

/** Every rail of a DUT over every block; out-of-range rails throw. */
void
expectAllBlocksMatch(Dut &dut, const std::vector<std::vector<double>> &blocks,
                     const std::function<double(unsigned, double)> &reference)
{
    for (unsigned rail = 0; rail < dut.railCount(); ++rail) {
        for (const auto &times : blocks) {
            std::function<double(double)> rail_reference;
            if (reference)
                rail_reference = [&](double t) { return reference(rail, t); };
            expectBlockMatchesSamples(dut, rail, times, rail_reference);
        }
    }
    double t = 0.0, w = 0.0, a = 0.0;
    EXPECT_THROW(dut.demandBlock(dut.railCount(), &t, 1, &w, &a),
                 UsageError);
    EXPECT_THROW(dut.demandBlock(dut.railCount(), &t, 0, &w, &a),
                 UsageError);
    EXPECT_THROW(dut.current(dut.railCount(), 0.0, 12.0), UsageError);
}

TEST(DemandBlock, GpuModelMatchesPerSampleAcrossKernelEdges)
{
    const std::vector<KernelSchedule> program = {
        {0.02, 0.25, 110.0, 5}, {0.40, 0.12, 0.0, 3}, {0.52, 0.2, 95.0, 0}};
    std::vector<double> edges;
    for (const auto &k : program) {
        edges.push_back(k.start);
        edges.push_back(k.end());
    }
    edges.push_back(0.02 + 0.05); // a phase dip
    for (const GpuSpec &spec :
         {GpuSpec::rtx4000Ada(), GpuSpec::w7700(),
          GpuSpec::rtx4000Ada().tuningVariant()}) {
        SCOPED_TRACE(spec.name);
        GpuDutModel gpu(spec);
        gpu.setProgram(program);
        gpu.setPowerScale(0.8);
        const auto rails = TraceDut::pcieThreeRail();
        expectAllBlocksMatch(
            gpu, blocksAround(edges, 1.0), [&](unsigned rail, double t) {
                return splitRailPower(rails, rail, gpu.totalPower(t));
            });
    }
}

TEST(DemandBlock, GpuModelWithoutProgramIsIdle)
{
    GpuDutModel gpu(GpuSpec::rtx4000Ada());
    const auto rails = TraceDut::pcieThreeRail();
    const double idle = GpuSpec::rtx4000Ada().idlePower;
    expectAllBlocksMatch(gpu, blocksAround({0.0, 1.0}, 2.0),
                         [&](unsigned rail, double) {
                             return splitRailPower(rails, rail, idle);
                         });
}

TEST(DemandBlock, SocModelMatchesPerSample)
{
    SocDutModel soc(GpuSpec::jetsonAgxOrinModule(), 4.8, 20.0);
    soc.module().setProgram({{0.1, 0.3, 0.0, 4}, {0.5, 0.2, 40.0, 0}});
    expectAllBlocksMatch(soc, blocksAround({0.1, 0.4, 0.5, 0.7}, 1.0),
                         [&](unsigned, double t) {
                             return soc.truePower(t);
                         });
}

TEST(DemandBlock, CpuModelMatchesPerSampleAcrossPhaseEdges)
{
    CpuDutModel cpu(CpuSpec::server16Core());
    cpu.setProgram({{0.01, 0.1, 8, 0.5}, {0.11, 0.05, 16, 1.0},
                    {0.3, 0.2, 4, 0.25}});
    cpu.setPowerScale(0.6);
    expectAllBlocksMatch(cpu,
                         blocksAround({0.01, 0.11, 0.16, 0.3, 0.5}, 0.8),
                         [&](unsigned, double t) {
                             return cpu.packagePower(t);
                         });
}

TEST(DemandBlock, TraceDutMatchesPerSampleAcrossVertices)
{
    const std::vector<TracePoint> trace = {
        {0.05, 2.0}, {0.2, 6.5}, {0.2, 3.0}, {0.7, 8.0}, {1.0, 1.0}};
    std::vector<double> edges;
    for (const auto &p : trace)
        edges.push_back(p.time);
    for (const auto &rails :
         {TraceDut::m2AdapterRails(), TraceDut::pcieThreeRail()}) {
        TraceDut dut(trace, rails);
        expectAllBlocksMatch(dut, blocksAround(edges, 1.2),
                             [&](unsigned rail, double t) {
                                 return splitRailPower(rails, rail,
                                                       dut.truePower(t));
                             });
    }
}

TEST(DemandBlock, SsdModelMatchesPerSample)
{
    storage::SsdDutModel ssd;
    ssd.setPowerScale(0.7);
    expectAllBlocksMatch(ssd, blocksAround({0.0, 0.5}, 1.0),
                         [&](unsigned, double t) {
                             return ssd.truePower(t);
                         });
}

TEST(DemandBlock, CurrentLoadsMatchPerSample)
{
    // Constant-current loads: all amps, no power-law part, and the
    // current does not depend on the rail voltage.
    ElectronicLoad square(8.0, 12.0, 1e5); // 40-us edges
    square.modulate(LoadWaveform::Square, 100.0, 0.5);
    ElectronicLoad sine(8.0, 12.0);
    sine.modulate(LoadWaveform::Sine, 250.0, 0.3);
    sine.setMinimumCurrent(6.0);
    ElectronicLoad constant(3.0, 12.0);
    ConstantCurrentLoad fixed(2.5, 12.0);
    const auto blocks =
        blocksAround({0.0, 0.005, 0.01, 0.015, 0.02}, 0.03);
    for (Dut *dut : std::initializer_list<Dut *>{&square, &sine,
                                                 &constant, &fixed}) {
        expectAllBlocksMatch(*dut, blocks, nullptr);
        const auto times = scanBlock(0.005 - 10e-6);
        std::vector<double> watts(times.size()), amps(times.size());
        dut->demandBlock(0, times.data(), times.size(), watts.data(),
                         amps.data());
        for (std::size_t i = 0; i < times.size(); ++i) {
            EXPECT_EQ(watts[i], 0.0);
            EXPECT_EQ(dut->current(0, times[i], 0.0), amps[i]);
        }
    }
    // The block path sees the slewed edge, not only the two levels.
    const auto edge = scanBlock(0.005, 6, 5e-6);
    std::vector<double> watts(edge.size()), amps(edge.size());
    square.demandBlock(0, edge.data(), edge.size(), watts.data(),
                       amps.data());
    EXPECT_EQ(amps.front(), 8.0);
    EXPECT_GT(amps.back(), 4.0);
    EXPECT_LT(amps.back(), 8.0);
}

TEST(RailBinding, BlockMatchesPerSampleFixedPoint)
{
    // resolveBlock() settles the same two-step fixed point per
    // instant that the per-sample current() API gives.
    auto gpu = std::make_shared<GpuDutModel>(GpuSpec::rtx4000Ada());
    gpu->setProgram({{0.001, 0.002, 120.0, 2}});
    auto load = std::make_shared<ElectronicLoad>(8.0, 12.0, 1e5);
    load->modulate(LoadWaveform::Square, 1000.0, 0.5);
    auto supply = std::make_shared<SupplyModel>(12.0, 0.05);
    struct Case
    {
        std::shared_ptr<Dut> dut;
        unsigned rail;
    };
    for (const Case &c :
         {Case{gpu, 0}, Case{gpu, 2}, Case{load, 0}}) {
        RailBinding binding(c.dut, c.rail, supply);
        for (double t0 : {0.0, 0.001 - 20e-6, 0.0005 - 20e-6, 0.003}) {
            const auto times = scanBlock(t0);
            std::vector<double> volts(times.size()), amps(times.size());
            binding.resolveBlock(times.data(), times.size(), volts.data(),
                                 amps.data());
            for (std::size_t i = 0; i < times.size(); ++i) {
                const double t = times[i];
                double v = supply->voltage(t, 0.0);
                double a = 0.0;
                for (int k = 0; k < 2; ++k) {
                    a = c.dut->current(c.rail, t, v);
                    v = supply->voltage(t, a);
                }
                EXPECT_EQ(volts[i], v) << "t=" << t;
                EXPECT_EQ(amps[i], a) << "t=" << t;
                double one_v = 0.0, one_a = 0.0;
                binding.resolve(t, one_v, one_a);
                EXPECT_EQ(one_v, v);
                EXPECT_EQ(one_a, a);
            }
        }
    }
}

} // namespace
} // namespace ps3::dut
