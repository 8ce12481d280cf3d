#include "sensor_models.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/errors.hpp"

namespace ps3::analog {

OnePoleFilter::OnePoleFilter(double bandwidth_hz)
{
    if (bandwidth_hz <= 0.0)
        throw UsageError("OnePoleFilter: bandwidth must be positive");
    tau_ = 1.0 / (2.0 * M_PI * bandwidth_hz);
}

double
OnePoleFilter::step(double input, double dt)
{
    if (!primed_) {
        // First sample after power-on: start settled at the input so
        // benches do not see a spurious initial transient.
        state_ = input;
        primed_ = true;
        return state_;
    }
    if (dt != cachedDt_) {
        cachedAlpha_ = 1.0 - std::exp(-dt / tau_);
        cachedDt_ = dt;
    }
    state_ += cachedAlpha_ * (input - state_);
    return state_;
}

void
OnePoleFilter::reset(double value)
{
    state_ = value;
    primed_ = true;
}

CurrentSensorModel::CurrentSensorModel(const SensorModuleSpec &spec,
                                       std::uint64_t rng_seed,
                                       double offset_error_amps,
                                       double gain_error)
    : spec_(spec),
      rng_(rng_seed),
      offsetErrorAmps_(offset_error_amps),
      gainError_(gain_error),
      filter_(spec.currentBandwidthHz)
{
    // Give each part its own position in the thermal cycle so modules
    // do not drift in lockstep.
    driftPhase_ = rng_.uniform(0.0, 2.0 * M_PI);
}

double
CurrentSensorModel::sample(double true_amps, double t, NoiseMode mode)
{
    const double dt = haveLastTime_ ? std::max(t - lastTime_, 0.0) : 0.0;
    lastTime_ = t;
    haveLastTime_ = true;

    // Bandwidth limit acts on the physical current signal.
    const double band_limited = filter_.step(true_amps, dt);

    // Slow thermal wander of the Hall zero offset.
    const double drift =
        0.5 * spec_.thermalDriftAmpsPp
        * std::sin(2.0 * M_PI * t / spec_.thermalDriftPeriod
                   + driftPhase_);

    // S-curve nonlinearity: zero at 0 and at +-full scale.
    const double x = band_limited / spec_.currentFullScale;
    const double nonlinearity =
        spec_.linearityFraction * spec_.currentFullScale
        * (x * x * x - x);

    double amps = (band_limited + nonlinearity + offsetErrorAmps_
                   + drift)
                  * (1.0 + gainError_);
    if (mode == NoiseMode::Full)
        amps += rng_.gaussian(0.0, spec_.hallNoiseRmsRaw);

    double vout = spec_.currentOffsetVoltage()
                  + spec_.currentSensitivity() * amps;
    return std::clamp(vout, 0.0, kAdcVref);
}

void
CurrentSensorModel::sampleBlock(const double *true_amps,
                                const double *times, std::size_t n,
                                NoiseMode mode, double *vout)
{
    if (n == 0)
        return;
    if (n > kMaxSampleBlock)
        throw UsageError("CurrentSensorModel: sample block too large");

    // One batched draw per block keeps the RNG stream identical to
    // the per-call path (gaussianBlock == n gaussian() calls). Only
    // the n samples in use are written.
    std::array<double, kMaxSampleBlock> noise;
    if (mode == NoiseMode::Full)
        rng_.gaussianBlock(noise.data(), n, 0.0,
                           spec_.hallNoiseRmsRaw);
    else
        std::fill_n(noise.data(), n, 0.0);

    // The thermal wander moves on a minutes-scale period; a single
    // evaluation at the block midpoint is indistinguishable from the
    // per-sample sin() (difference < 1e-9 A over a 42 us block).
    const double t_mid = 0.5 * (times[0] + times[n - 1]);
    const double drift =
        0.5 * spec_.thermalDriftAmpsPp
        * std::sin(2.0 * M_PI * t_mid / spec_.thermalDriftPeriod
                   + driftPhase_);

    for (std::size_t i = 0; i < n; ++i) {
        const double t = times[i];
        const double dt =
            haveLastTime_ ? std::max(t - lastTime_, 0.0) : 0.0;
        lastTime_ = t;
        haveLastTime_ = true;

        const double band_limited = filter_.step(true_amps[i], dt);

        const double x = band_limited / spec_.currentFullScale;
        const double nonlinearity =
            spec_.linearityFraction * spec_.currentFullScale
            * (x * x * x - x);

        const double amps = (band_limited + nonlinearity
                             + offsetErrorAmps_ + drift)
                                * (1.0 + gainError_)
                            + noise[i];
        const double v = spec_.currentOffsetVoltage()
                         + spec_.currentSensitivity() * amps;
        vout[i] = std::clamp(v, 0.0, kAdcVref);
    }
}

VoltageSensorModel::VoltageSensorModel(const SensorModuleSpec &spec,
                                       std::uint64_t rng_seed,
                                       double gain_error)
    : spec_(spec),
      rng_(rng_seed),
      gainError_(gain_error),
      filter_(spec.voltageBandwidthHz)
{
}

double
VoltageSensorModel::sample(double true_volts, double t, NoiseMode mode)
{
    const double dt = haveLastTime_ ? std::max(t - lastTime_, 0.0) : 0.0;
    lastTime_ = t;
    haveLastTime_ = true;

    const double band_limited = filter_.step(true_volts, dt);

    double volts = band_limited * (1.0 + gainError_);
    if (mode == NoiseMode::Full)
        volts += rng_.gaussian(0.0, spec_.ampNoiseRmsInput);

    double vout = volts * spec_.voltageGain();
    return std::clamp(vout, 0.0, kAdcVref);
}

void
VoltageSensorModel::sampleBlock(const double *true_volts,
                                const double *times, std::size_t n,
                                NoiseMode mode, double *vout)
{
    if (n == 0)
        return;
    if (n > kMaxSampleBlock)
        throw UsageError("VoltageSensorModel: sample block too large");

    std::array<double, kMaxSampleBlock> noise;
    if (mode == NoiseMode::Full)
        rng_.gaussianBlock(noise.data(), n, 0.0,
                           spec_.ampNoiseRmsInput);
    else
        std::fill_n(noise.data(), n, 0.0);

    for (std::size_t i = 0; i < n; ++i) {
        const double t = times[i];
        const double dt =
            haveLastTime_ ? std::max(t - lastTime_, 0.0) : 0.0;
        lastTime_ = t;
        haveLastTime_ = true;

        const double band_limited = filter_.step(true_volts[i], dt);
        const double volts =
            band_limited * (1.0 + gainError_) + noise[i];
        const double v = volts * spec_.voltageGain();
        vout[i] = std::clamp(v, 0.0, kAdcVref);
    }
}

std::uint16_t
AdcModel::convert(double volts)
{
    const double clamped = std::clamp(volts, 0.0, kAdcVref);
    auto code = static_cast<int>(clamped / kAdcVref * kAdcCodes);
    return static_cast<std::uint16_t>(std::min(code, kAdcCodes - 1));
}

double
AdcModel::toVolts(std::uint16_t code)
{
    // Bin centre: +0.5 LSB removes the systematic truncation bias.
    return (static_cast<double>(code) + 0.5) * kAdcLsb;
}

} // namespace ps3::analog
