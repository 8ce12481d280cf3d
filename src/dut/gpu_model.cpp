#include "gpu_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/errors.hpp"

namespace ps3::dut {

GpuSpec
GpuSpec::rtx4000Ada()
{
    GpuSpec spec;
    spec.name = "RTX4000Ada";
    spec.idlePower = 16.0;
    spec.powerLimit = 130.0;
    spec.launchPower = 95.0;
    spec.sustainedPower = 120.0;
    spec.rampTau = 0.35;
    spec.decayTau = 0.45;
    spec.envelope = LaunchEnvelope::StepAndRamp;
    spec.phaseDipDepth = 18.0;
    spec.phaseDipDuration = 0.004;
    spec.boostClockMHz = 2175.0;
    spec.baseClockMHz = 720.0;
    spec.computeUnits = 48;
    return spec;
}

GpuSpec
GpuSpec::w7700()
{
    GpuSpec spec;
    spec.name = "W7700";
    spec.idlePower = 19.0;
    spec.powerLimit = 150.0;
    spec.launchPower = 150.0;
    spec.sustainedPower = 150.0;
    spec.rampTau = 0.18;
    spec.decayTau = 0.08;
    spec.envelope = LaunchEnvelope::SpikeDropRamp;
    spec.spikeDuration = 0.06;
    spec.dropPower = 95.0;
    spec.phaseDipDepth = 12.0;
    spec.phaseDipDuration = 0.003;
    spec.boostClockMHz = 2226.0;
    spec.baseClockMHz = 900.0;
    spec.computeUnits = 48;
    return spec;
}

GpuSpec
GpuSpec::jetsonAgxOrinModule()
{
    GpuSpec spec;
    spec.name = "JetsonAGXOrin";
    spec.idlePower = 9.0;
    spec.powerLimit = 60.0;
    spec.launchPower = 38.0;
    spec.sustainedPower = 50.0;
    spec.rampTau = 0.25;
    spec.decayTau = 0.3;
    spec.envelope = LaunchEnvelope::StepAndRamp;
    spec.phaseDipDepth = 7.0;
    spec.phaseDipDuration = 0.004;
    spec.boostClockMHz = 1300.0;
    spec.baseClockMHz = 420.0;
    spec.computeUnits = 16;
    return spec;
}

GpuSpec
GpuSpec::tuningVariant() const
{
    GpuSpec spec = *this;
    spec.envelope = LaunchEnvelope::Instant;
    spec.phaseDipDepth = 0.0;
    spec.decayTau = 0.004;
    return spec;
}

GpuDutModel::GpuDutModel(GpuSpec spec,
                         std::vector<TraceDut::RailSplit> rails)
    : spec_(std::move(spec)),
      rails_(std::move(rails)),
      program_(std::make_shared<const Program>())
{
    if (rails_.empty())
        throw UsageError("GpuDutModel: no rails");
}

unsigned
GpuDutModel::railCount() const
{
    return static_cast<unsigned>(rails_.size());
}

void
GpuDutModel::setProgram(std::vector<KernelSchedule> program)
{
    for (std::size_t i = 0; i < program.size(); ++i) {
        if (program[i].duration <= 0.0)
            throw UsageError("GpuDutModel: non-positive duration");
        if (i > 0 && program[i].start < program[i - 1].end())
            throw UsageError("GpuDutModel: overlapping schedule");
        if (program[i].sustainedPower <= 0.0)
            program[i].sustainedPower = spec_.sustainedPower;
    }
    program_.store(
        std::make_shared<const Program>(std::move(program)));
}

void
GpuDutModel::launchKernel(double start, double duration,
                          double sustained_power, unsigned phases)
{
    const auto current = program_.load();
    Program next = *current;
    if (!next.empty() && start < next.back().end())
        throw UsageError("GpuDutModel: kernel overlaps previous one");
    KernelSchedule k;
    k.start = start;
    k.duration = duration;
    k.sustainedPower =
        sustained_power > 0.0 ? sustained_power : spec_.sustainedPower;
    k.phases = phases;
    next.push_back(k);
    setProgram(std::move(next));
}

void
GpuDutModel::clearProgram()
{
    program_.store(std::make_shared<const Program>());
}

double
GpuDutModel::envelopePower(double tau, const KernelSchedule &k) const
{
    double power = 0.0;
    switch (spec_.envelope) {
      case LaunchEnvelope::Instant:
        power = k.sustainedPower;
        break;
      case LaunchEnvelope::StepAndRamp:
        power = spec_.launchPower
                + (k.sustainedPower - spec_.launchPower)
                      * (1.0 - std::exp(-tau / spec_.rampTau));
        break;
      case LaunchEnvelope::SpikeDropRamp:
        if (tau < spec_.spikeDuration) {
            power = spec_.powerLimit;
        } else {
            // Damped-cosine recovery: starts at dropPower, overshoots
            // the sustained level once, then settles.
            const double x = tau - spec_.spikeDuration;
            const double envelope = std::exp(-x / spec_.rampTau);
            power = k.sustainedPower
                    + (spec_.dropPower - k.sustainedPower) * envelope
                          * std::cos(0.9 * x / spec_.rampTau);
        }
        break;
    }

    // Dips between sequential thread-block phases.
    if (k.phases > 1 && spec_.phaseDipDepth > 0.0) {
        const double phase_period = k.duration / k.phases;
        const double into_phase =
            tau - std::floor(tau / phase_period) * phase_period;
        const bool not_first = tau >= phase_period;
        if (not_first && into_phase < spec_.phaseDipDuration)
            power -= spec_.phaseDipDepth;
    }

    // The governor never lets sustained power exceed the board limit
    // (the brief launch spike of the SpikeDropRamp shape is the limit
    // itself; the overshoot may poke slightly above, as in Fig. 7b).
    return std::min(power, spec_.powerLimit * 1.04);
}

void
GpuDutModel::setPowerScale(double scale)
{
    if (scale <= 0.0 || scale > 1.0)
        throw UsageError("GpuDutModel: power scale out of (0, 1]");
    powerScale_.store(scale, std::memory_order_relaxed);
}

double
GpuDutModel::powerIn(const Program &program,
                     Program::const_iterator next, double t,
                     double scale) const
{
    if (next == program.begin())
        return spec_.idlePower;
    const KernelSchedule &k = *(next - 1);

    const double tau = t - k.start;
    if (tau <= k.duration) {
        const double raw =
            std::max(envelopePower(tau, k), spec_.idlePower);
        return spec_.idlePower + (raw - spec_.idlePower) * scale;
    }

    // Between/after kernels: exponential decay back to idle.
    const double end_power =
        spec_.idlePower
        + (envelopePower(k.duration, k) - spec_.idlePower) * scale;
    const double dt = tau - k.duration;
    return spec_.idlePower
           + (end_power - spec_.idlePower)
                 * std::exp(-dt / spec_.decayTau);
}

namespace {

/** First kernel starting after t. */
auto
kernelAfter(const std::vector<KernelSchedule> &program, double t)
{
    return std::upper_bound(
        program.begin(), program.end(), t,
        [](double v, const KernelSchedule &k) { return v < k.start; });
}

} // namespace

double
GpuDutModel::totalPower(double t) const
{
    const double scale =
        powerScale_.load(std::memory_order_relaxed);
    const auto program = program_.load();
    return powerIn(*program, kernelAfter(*program, t), t, scale);
}

void
GpuDutModel::demandBlock(unsigned rail, const double *times,
                         std::size_t n, double *watts, double *amps)
{
    if (rail >= rails_.size())
        throw UsageError("GpuDutModel: rail out of range");
    if (n == 0)
        return;
    const double scale =
        powerScale_.load(std::memory_order_relaxed);
    const auto program = program_.load();
    // Times are non-decreasing: search once, then walk forward.
    auto next = kernelAfter(*program, times[0]);
    for (std::size_t i = 0; i < n; ++i) {
        const double t = times[i];
        while (next != program->end() && !(t < next->start))
            ++next;
        watts[i] = splitRailPower(rails_, rail,
                                  powerIn(*program, next, t, scale));
        amps[i] = 0.0;
    }
}

double
GpuDutModel::truePower(double t)
{
    return totalPower(t);
}

SocDutModel::SocDutModel(GpuSpec module_spec, double carrier_board_watts,
                         double usb_c_volts)
    : module_(std::move(module_spec), TraceDut::singleRail12V()),
      carrierBoardWatts_(carrier_board_watts),
      usbCVolts_(usb_c_volts)
{
}

double
SocDutModel::modulePower(double t) const
{
    return module_.totalPower(t);
}

double
SocDutModel::truePower(double t)
{
    return modulePower(t) + carrierBoardWatts_;
}

void
SocDutModel::demandBlock(unsigned rail, const double *times,
                         std::size_t n, double *watts, double *amps)
{
    if (rail != 0)
        throw UsageError("SocDutModel: rail out of range");
    // The module's single rail carries its whole power.
    module_.demandBlock(0, times, n, watts, amps);
    for (std::size_t i = 0; i < n; ++i)
        watts[i] += carrierBoardWatts_;
}

} // namespace ps3::dut
