/**
 * @file
 * Device-under-test (DUT) abstractions.
 *
 * A Dut models the electrical load of the measured device: given a
 * rail index, a point in (virtual) time, and the instantaneous rail
 * voltage, it reports the current drawn. A SupplyModel models the
 * source side (lab supply or PSU rail) including output resistance, so
 * voltage sags under load as the paper stresses ("voltages cannot be
 * assumed to be stable under load", Sec. II).
 *
 * A Dut reports a rail's demand rather than its current: for each
 * time, a constant-power part (watts) and a constant-current part
 * (amps). The current at any voltage follows from the demand alone
 * (railCurrent()), so the firmware evaluates the load once per ADC
 * conversion and settles the supply/load fixed point on scalars.
 *
 * RailBinding couples one supply to one DUT rail and resolves the
 * operating point; the firmware emulation reads true voltage/current
 * through it, one channel scan block at a time, and feeds them to
 * the sensor models.
 *
 * Implementations must be thread safe for concurrent reads: the
 * firmware thread samples while a control thread may reconfigure the
 * DUT (e.g. the auto-tuner launching the next kernel variant). A
 * demandBlock() call reads the DUT's configuration once, so a
 * reconfiguration takes effect at the next scan block: at most
 * ~42 us of device time (one channel's six conversions) later.
 */

#ifndef PS3_DUT_DUT_HPP
#define PS3_DUT_DUT_HPP

#include <cstddef>
#include <memory>

namespace ps3::dut {

/** Electrical load interface of a measured device. */
class Dut
{
  public:
    virtual ~Dut() = default;

    /** Number of power rails the device draws from. */
    virtual unsigned railCount() const = 0;

    /**
     * Demand of one rail at n instants: the current at rail voltage V
     * is railCurrent(watts[i], amps[i], V).
     *
     * Reads the DUT's configuration (program, scale, parameters)
     * once for the whole block.
     *
     * @param rail Rail index in [0, railCount()).
     * @param times n times in seconds (virtual clock domain),
     *        non-decreasing.
     * @param n Block length (may be 0).
     * @param watts Receives the constant-power parts (W).
     * @param amps Receives the constant-current parts (A).
     * @throws UsageError if rail is out of range.
     */
    virtual void demandBlock(unsigned rail, const double *times,
                             std::size_t n, double *watts,
                             double *amps) = 0;

    /**
     * Instantaneous current drawn from a rail: demandBlock() for one
     * instant, resolved at the given voltage.
     *
     * @param rail Rail index in [0, railCount()).
     * @param t Time in seconds (virtual clock domain).
     * @param volts Instantaneous rail voltage.
     * @return Current in amperes.
     * @throws UsageError if rail is out of range.
     */
    double current(unsigned rail, double t, double volts);

    /**
     * Ground truth total power across all rails at nominal voltages;
     * used by benches as the noise-free reference (the "Fluke
     * multimeter" of the paper's Fig. 3 setup).
     */
    virtual double truePower(double t) = 0;
};

/**
 * Current of a rail demand at a rail voltage: the constant-current
 * part plus the constant-power part over the voltage (nothing at a
 * non-positive voltage).
 */
inline double
railCurrent(double watts, double amps, double volts)
{
    return amps + (volts > 0.0 ? watts / volts : 0.0);
}

/** Voltage source with finite output resistance. */
class SupplyModel
{
  public:
    /**
     * @param set_volts Programmed output voltage.
     * @param output_resistance Source resistance (ohm).
     */
    explicit SupplyModel(double set_volts,
                         double output_resistance = 0.01);

    virtual ~SupplyModel() = default;

    /** Terminal voltage when sourcing the given current. */
    virtual double voltage(double t, double amps) const;

    /** Programmed voltage. */
    double setVolts() const { return setVolts_; }

    /** Reprogram the output voltage. */
    void setVolts(double volts) { setVolts_ = volts; }

  private:
    double setVolts_;
    double outputResistance_;
};

/**
 * One supply feeding one DUT rail; resolves the electrical operating
 * point with a short fixed-point iteration (the system is almost
 * linear, two iterations converge to microvolt level).
 */
class RailBinding
{
  public:
    RailBinding(std::shared_ptr<Dut> dut, unsigned rail,
                std::shared_ptr<SupplyModel> supply);

    /**
     * Resolve true voltage and current at n instants with one
     * Dut::demandBlock() call (the firmware's per-channel scan
     * block).
     *
     * @param times n times, non-decreasing.
     * @param n Block length.
     * @param volts Receives n rail voltages.
     * @param amps Receives n rail currents.
     */
    void resolveBlock(const double *times, std::size_t n, double *volts,
                      double *amps) const;

    /** Resolve true voltage and current at time t (n = 1 block). */
    void resolve(double t, double &volts, double &amps) const
    {
        resolveBlock(&t, 1, &volts, &amps);
    }

    const Dut &dut() const { return *dut_; }
    unsigned rail() const { return rail_; }

  private:
    std::shared_ptr<Dut> dut_;
    unsigned rail_;
    std::shared_ptr<SupplyModel> supply_;
};

} // namespace ps3::dut

#endif // PS3_DUT_DUT_HPP
