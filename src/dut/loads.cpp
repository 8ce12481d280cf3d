#include "loads.hpp"

#include <algorithm>
#include <cmath>

#include "common/errors.hpp"

namespace ps3::dut {

ConstantCurrentLoad::ConstantCurrentLoad(double amps,
                                         double nominal_volts)
    : amps_(amps), nominalVolts_(nominal_volts)
{
}

void
ConstantCurrentLoad::demandBlock(unsigned rail, const double *,
                                 std::size_t n, double *watts,
                                 double *amps)
{
    if (rail != 0)
        throw UsageError("ConstantCurrentLoad: rail out of range");
    const double a = amps_.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < n; ++i) {
        watts[i] = 0.0;
        amps[i] = a;
    }
}

double
ConstantCurrentLoad::truePower(double)
{
    return amps_.load(std::memory_order_relaxed) * nominalVolts_;
}

void
ConstantCurrentLoad::setAmps(double amps)
{
    amps_.store(amps, std::memory_order_relaxed);
}

ElectronicLoad::ElectronicLoad(double setpoint_amps,
                               double nominal_volts,
                               double slew_amps_per_sec)
    : settings_{setpoint_amps, slew_amps_per_sec},
      nominalVolts_(nominal_volts)
{
    if (slew_amps_per_sec <= 0.0)
        throw UsageError("ElectronicLoad: slew rate must be positive");
}

void
ElectronicLoad::modulate(LoadWaveform waveform, double frequency_hz,
                         double depth)
{
    if (waveform != LoadWaveform::Constant &&
        (frequency_hz <= 0.0 || depth < 0.0 || depth > 1.0)) {
        throw UsageError("ElectronicLoad: invalid modulation");
    }
    std::lock_guard<std::mutex> lock(mutex_);
    settings_.waveform = waveform;
    settings_.frequency = frequency_hz;
    settings_.depth = depth;
}

void
ElectronicLoad::setAmps(double amps)
{
    std::lock_guard<std::mutex> lock(mutex_);
    settings_.setpoint = amps;
}

void
ElectronicLoad::setMinimumCurrent(double amps)
{
    std::lock_guard<std::mutex> lock(mutex_);
    settings_.minCurrent = amps;
}

ElectronicLoad::Settings
ElectronicLoad::settings() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return settings_;
}

double
ElectronicLoad::Settings::target(double t) const
{
    const double hi = setpoint;
    const double lo = std::max(setpoint * (1.0 - depth), minCurrent);
    switch (waveform) {
      case LoadWaveform::Constant:
        return hi;
      case LoadWaveform::Square: {
        const double period = 1.0 / frequency;
        const double phase = t - std::floor(t / period) * period;
        return phase < period / 2.0 ? hi : lo;
      }
      case LoadWaveform::Sine: {
        const double s = std::sin(2.0 * M_PI * frequency * t);
        return lo + (hi - lo) * (0.5 + 0.5 * s);
      }
    }
    return hi;
}

double
ElectronicLoad::Settings::current(double t) const
{
    if (waveform != LoadWaveform::Square)
        return target(t);

    const double hi = setpoint;
    const double lo = std::max(setpoint * (1.0 - depth), minCurrent);
    const double period = 1.0 / frequency;
    const double phase = t - std::floor(t / period) * period;
    const double rise = (hi - lo) / slew;

    // Trapezoid: ramp up at the start of the high phase, ramp down at
    // the start of the low phase.
    if (phase < period / 2.0) {
        if (phase < rise)
            return lo + slew * phase;
        return hi;
    }
    const double into_low = phase - period / 2.0;
    if (into_low < rise)
        return hi - slew * into_low;
    return lo;
}

double
ElectronicLoad::targetCurrent(double t) const
{
    return settings().target(t);
}

void
ElectronicLoad::demandBlock(unsigned rail, const double *times,
                            std::size_t n, double *watts, double *amps)
{
    if (rail != 0)
        throw UsageError("ElectronicLoad: rail out of range");
    const Settings now = settings();
    for (std::size_t i = 0; i < n; ++i) {
        watts[i] = 0.0;
        amps[i] = now.current(times[i]);
    }
}

double
ElectronicLoad::truePower(double t)
{
    return current(0, t, nominalVolts_) * nominalVolts_;
}

TraceDut::TraceDut(std::vector<TracePoint> trace,
                   std::vector<RailSplit> rails)
    : trace_(std::move(trace)), rails_(std::move(rails))
{
    if (trace_.empty())
        throw UsageError("TraceDut: empty trace");
    if (rails_.empty())
        throw UsageError("TraceDut: no rails");
    for (std::size_t i = 1; i < trace_.size(); ++i) {
        if (trace_[i].time < trace_[i - 1].time)
            throw UsageError("TraceDut: trace not sorted by time");
    }
}

unsigned
TraceDut::railCount() const
{
    return static_cast<unsigned>(rails_.size());
}

namespace {

/** First trace point at or after t. */
auto
pointFrom(const std::vector<TracePoint> &trace, double t)
{
    return std::lower_bound(
        trace.begin(), trace.end(), t,
        [](const TracePoint &p, double v) { return p.time < v; });
}

} // namespace

double
TraceDut::interpolateAt(Trace::const_iterator it, double t) const
{
    if (t <= trace_.front().time)
        return trace_.front().power;
    if (t >= trace_.back().time)
        return trace_.back().power;
    const auto &hi = *it;
    const auto &lo = *(it - 1);
    if (hi.time == lo.time)
        return hi.power;
    const double frac = (t - lo.time) / (hi.time - lo.time);
    return lo.power + frac * (hi.power - lo.power);
}

double
TraceDut::interpolate(double t) const
{
    return interpolateAt(pointFrom(trace_, t), t);
}

double
splitRailPower(const std::vector<TraceDut::RailSplit> &rails,
               unsigned rail, double total)
{
    double remaining = total;
    for (unsigned i = 0; i < rails.size(); ++i) {
        const auto &split = rails[i];
        double want = i + 1 == rails.size() ? remaining
                                            : total * split.fraction;
        if (split.capWatts > 0.0)
            want = std::min(want, split.capWatts);
        want = std::min(want, remaining);
        if (i == rail)
            return want;
        remaining -= want;
    }
    return 0.0;
}

void
TraceDut::demandBlock(unsigned rail, const double *times, std::size_t n,
                      double *watts, double *amps)
{
    if (rail >= rails_.size())
        throw UsageError("TraceDut: rail out of range");
    if (n == 0)
        return;
    // Times are non-decreasing: search once, then walk forward.
    auto it = pointFrom(trace_, times[0]);
    for (std::size_t i = 0; i < n; ++i) {
        const double t = times[i];
        while (it != trace_.end() && it->time < t)
            ++it;
        watts[i] = splitRailPower(rails_, rail, interpolateAt(it, t));
        amps[i] = 0.0;
    }
}

double
TraceDut::truePower(double t)
{
    return interpolate(t);
}

std::vector<TraceDut::RailSplit>
TraceDut::singleRail12V()
{
    return {{12.0, 1.0, 0.0}};
}

std::vector<TraceDut::RailSplit>
TraceDut::pcieThreeRail()
{
    // PCIe CEM budgets: 9.9 W on 3.3 V, 66 W on slot 12 V, remainder
    // on the external 8-pin connector.
    return {{3.3, 0.08, 9.9}, {12.0, 0.5, 66.0}, {12.0, 1.0, 0.0}};
}

std::vector<TraceDut::RailSplit>
TraceDut::m2AdapterRails()
{
    // The M.2 card is fed from the adapter's 3.3 V rail; the 12 V
    // rail only powers adapter logic (fraction of a watt).
    return {{12.0, 0.04, 0.4}, {3.3, 1.0, 0.0}};
}

} // namespace ps3::dut
