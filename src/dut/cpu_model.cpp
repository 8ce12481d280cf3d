#include "cpu_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/errors.hpp"

namespace ps3::dut {

CpuSpec
CpuSpec::server16Core()
{
    CpuSpec spec;
    spec.name = "Server16";
    return spec;
}

CpuDutModel::CpuDutModel(CpuSpec spec)
    : spec_(std::move(spec)),
      program_(std::make_shared<const Program>())
{
    if (spec_.cores == 0)
        throw UsageError("CpuDutModel: zero cores");
}

void
CpuDutModel::setProgram(std::vector<CpuPhase> program)
{
    for (std::size_t i = 0; i < program.size(); ++i) {
        if (program[i].duration <= 0.0)
            throw UsageError("CpuDutModel: non-positive duration");
        if (program[i].activeCores > spec_.cores)
            throw UsageError("CpuDutModel: too many active cores");
        if (program[i].intensity < 0.0 || program[i].intensity > 1.0)
            throw UsageError("CpuDutModel: intensity out of range");
        if (i > 0 && program[i].start < program[i - 1].end())
            throw UsageError("CpuDutModel: overlapping phases");
    }
    program_.store(
        std::make_shared<const Program>(std::move(program)));
}

double
CpuDutModel::steadyPower(const CpuPhase &phase) const
{
    const double core_fraction =
        static_cast<double>(phase.activeCores) / spec_.cores;
    return spec_.idlePower
           + phase.activeCores * spec_.perCorePower * phase.intensity
           + spec_.uncorePower * core_fraction * phase.intensity;
}

void
CpuDutModel::setPowerScale(double scale)
{
    if (scale <= 0.0 || scale > 1.0)
        throw UsageError("CpuDutModel: power scale out of (0, 1]");
    powerScale_.store(scale, std::memory_order_relaxed);
}

namespace {

/** First phase starting after t. */
auto
phaseAfter(const std::vector<CpuPhase> &program, double t)
{
    return std::upper_bound(
        program.begin(), program.end(), t,
        [](double v, const CpuPhase &p) { return v < p.start; });
}

} // namespace

double
CpuDutModel::powerIn(const Program &program,
                     Program::const_iterator next, double t,
                     double scale) const
{
    if (next == program.begin())
        return spec_.idlePower;
    const CpuPhase &phase = *(next - 1);

    const double tau = t - phase.start;
    if (tau <= phase.duration) {
        const double target =
            spec_.idlePower
            + (steadyPower(phase) - spec_.idlePower) * scale;
        // Small thermal tail into the phase.
        return target
               + (spec_.idlePower - target)
                     * std::exp(-tau / spec_.thermalTau);
    }
    const double end_power =
        spec_.idlePower
        + (steadyPower(phase) - spec_.idlePower) * scale;
    const double dt = tau - phase.duration;
    return spec_.idlePower
           + (end_power - spec_.idlePower)
                 * std::exp(-dt / spec_.thermalTau);
}

double
CpuDutModel::packagePower(double t) const
{
    const double scale =
        powerScale_.load(std::memory_order_relaxed);
    const auto program = program_.load();
    return powerIn(*program, phaseAfter(*program, t), t, scale);
}

double
CpuDutModel::truePower(double t)
{
    return packagePower(t);
}

void
CpuDutModel::demandBlock(unsigned rail, const double *times,
                         std::size_t n, double *watts, double *amps)
{
    if (rail != 0)
        throw UsageError("CpuDutModel: rail out of range");
    if (n == 0)
        return;
    const double scale =
        powerScale_.load(std::memory_order_relaxed);
    const auto program = program_.load();
    // Times are non-decreasing: search once, then walk forward.
    auto next = phaseAfter(*program, times[0]);
    for (std::size_t i = 0; i < n; ++i) {
        const double t = times[i];
        while (next != program->end() && !(t < next->start))
            ++next;
        watts[i] = powerIn(*program, next, t, scale);
        amps[i] = 0.0;
    }
}

} // namespace ps3::dut
