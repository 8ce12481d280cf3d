/**
 * @file
 * Basic programmable loads: the constant load, the electronic load of
 * the paper's evaluation bench (Kniel E.Last equivalent), and a
 * piecewise-linear trace playback load used to replay power schedules
 * produced by workload simulators (e.g. the SSD subsystem).
 */

#ifndef PS3_DUT_LOADS_HPP
#define PS3_DUT_LOADS_HPP

#include <atomic>
#include <mutex>
#include <vector>

#include "dut/dut.hpp"

namespace ps3::dut {

/** Single-rail load drawing a fixed current regardless of voltage. */
class ConstantCurrentLoad : public Dut
{
  public:
    explicit ConstantCurrentLoad(double amps, double nominal_volts);

    unsigned railCount() const override { return 1; }
    void demandBlock(unsigned rail, const double *times, std::size_t n,
                     double *watts, double *amps) override;
    double truePower(double t) override;

    /** Reprogram the setpoint (thread safe). */
    void setAmps(double amps);

    double amps() const { return amps_.load(); }

  private:
    std::atomic<double> amps_;
    double nominalVolts_;
};

/** Modulation waveform of the electronic load. */
enum class LoadWaveform { Constant, Square, Sine };

/**
 * Laboratory electronic load with setpoint modulation and slew-rate
 * limiting (paper Sec. IV-C: 8 A setpoint, 100 Hz square modulation,
 * 50% depth, used for the step-response experiment).
 *
 * The waveform is computed analytically from t so that concurrent
 * sampling needs no shared mutable state: a square wave under a slew
 * limit becomes a trapezoid with transition time depth/slew. A
 * demandBlock() copies the settings under one lock and evaluates the
 * whole block from the copy.
 */
class ElectronicLoad : public Dut
{
  public:
    /**
     * @param setpoint_amps Programmed (peak) current.
     * @param nominal_volts Rail voltage used for truePower().
     * @param slew_amps_per_sec Current slew-rate limit.
     */
    ElectronicLoad(double setpoint_amps, double nominal_volts,
                   double slew_amps_per_sec = 2.0e6);

    unsigned railCount() const override { return 1; }
    void demandBlock(unsigned rail, const double *times, std::size_t n,
                     double *watts, double *amps) override;
    double truePower(double t) override;

    /**
     * Enable waveform modulation.
     *
     * For Square/Sine waveforms the current alternates between the
     * setpoint and setpoint * (1 - depth); e.g. the paper's 8 A at 50%
     * depth steps between 8 A and ~3.3 A (accounting for the load's
     * minimum current floor).
     *
     * @param waveform Modulation shape.
     * @param frequency_hz Modulation frequency.
     * @param depth Fraction of the setpoint removed in the low phase.
     */
    void modulate(LoadWaveform waveform, double frequency_hz,
                  double depth);

    /** Reprogram the setpoint. */
    void setAmps(double amps);

    /** Lowest current the load can regulate to (A). */
    void setMinimumCurrent(double amps);

    /** Target (un-slewed) current at time t; exposed for tests. */
    double targetCurrent(double t) const;

  private:
    /** The programmable settings, copied out under the lock. */
    struct Settings
    {
        double setpoint;
        double slew;
        double minCurrent = 0.0;
        LoadWaveform waveform = LoadWaveform::Constant;
        double frequency = 0.0;
        double depth = 0.0;

        /** Un-slewed current at t. */
        double target(double t) const;
        /** Current at t: trapezoidal edges on a square wave. */
        double current(double t) const;
    };

    mutable std::mutex mutex_;
    Settings settings_;
    double nominalVolts_;

    Settings settings() const;
};

/** One vertex of a piecewise-linear power schedule. */
struct TracePoint
{
    /** Time in seconds. */
    double time;
    /** Total DUT power at that time (W). */
    double power;
};

/**
 * Replays a piecewise-linear total-power trace over up to three rails
 * with a PCIe-style split policy: the 3.3 V rail takes a fixed
 * fraction capped at its budget, the 12 V slot rail takes up to its
 * budget, and the external connector takes the remainder (paper
 * Sec. II: 10 W at 3.3 V, 75 W slot total, rest external).
 */
class TraceDut : public Dut
{
  public:
    /** Per-rail split policy. */
    struct RailSplit
    {
        /** Nominal rail voltage (V). */
        double nominalVolts;
        /** Fraction of total power routed here before capping. */
        double fraction;
        /** Maximum power this rail may carry (W); 0 = unlimited. */
        double capWatts;
    };

    /**
     * @param trace Power schedule; must be sorted by time.
     * @param rails Split policy, evaluated in order with spill-over
     *        of capped power to the next rail.
     */
    TraceDut(std::vector<TracePoint> trace,
             std::vector<RailSplit> rails);

    unsigned railCount() const override;
    /** One trace search per block. */
    void demandBlock(unsigned rail, const double *times, std::size_t n,
                     double *watts, double *amps) override;
    double truePower(double t) override;

    /** Canonical single 12 V rail split. */
    static std::vector<RailSplit> singleRail12V();

    /** PCIe split: 3.3 V slot / 12 V slot / 12 V external. */
    static std::vector<RailSplit> pcieThreeRail();

    /** M.2 SSD via adapter: dominant 3.3 V rail plus 12 V standby. */
    static std::vector<RailSplit> m2AdapterRails();

  private:
    using Trace = std::vector<TracePoint>;

    Trace trace_;
    std::vector<RailSplit> rails_;

    double interpolate(double t) const;

    /**
     * Power at t, given `it`, the first point of the trace at or
     * after t (lower_bound on time).
     */
    double interpolateAt(Trace::const_iterator it, double t) const;
};

/**
 * Divide a total power draw over rails according to a split policy:
 * each rail takes its fraction of the total (capped at its budget),
 * spill-over flows to later rails, and the last rail absorbs the
 * remainder.
 */
double splitRailPower(const std::vector<TraceDut::RailSplit> &rails,
                      unsigned rail, double total);

} // namespace ps3::dut

#endif // PS3_DUT_LOADS_HPP
