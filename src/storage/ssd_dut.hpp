/**
 * @file
 * SSD as a continuous, governable DUT.
 *
 * SsdSimulator is a batch workload runner: it executes a request
 * stream and emits a power trace. The closed-loop capping scenario
 * (energy::PowerCapCoordinator) instead needs a device that answers
 * "what is your power *now*" for any t and can be throttled while
 * running. SsdDutModel is that adapter: a steady mixed-I/O workload
 * derived from SsdSpec's power constants (controller at the given
 * utilisation plus the active die population, GC adder included),
 * with a dut::Governor hook that models interface throttling — the
 * NVMe power-state ladder scales the above-idle share the same way
 * DVFS does on compute devices.
 */

#ifndef PS3_STORAGE_SSD_DUT_HPP
#define PS3_STORAGE_SSD_DUT_HPP

#include <atomic>
#include <memory>

#include "common/shared_snapshot.hpp"
#include "dut/dut.hpp"
#include "dut/governor.hpp"
#include "storage/ssd_simulator.hpp"

namespace ps3::storage {

/** Steady-state I/O mix of a running SsdDutModel. */
struct SsdWorkloadPoint
{
    /** Controller utilisation in [0, 1]. */
    double utilisation = 1.0;
    /** Fraction of busy dies reading in [0, 1] (rest programming). */
    double readFraction = 0.5;
    /** Fraction of dies busy in [0, 1]. */
    double dieOccupancy = 1.0;
    /** True while garbage collection is active. */
    bool gcActive = false;
};

/**
 * Single-rail (M.2 3.3 V) continuous SSD power model.
 *
 * Thread safe: setWorkload()/setPowerScale() may race with reads;
 * one demandBlock() reads the workload and scale once.
 */
class SsdDutModel : public dut::Dut
{
  public:
    explicit SsdDutModel(SsdSpec spec = SsdSpec{},
                         double rail_volts = 3.3);

    unsigned railCount() const override { return 1; }
    void demandBlock(unsigned rail, const double *times, std::size_t n,
                     double *watts, double *amps) override;
    double truePower(double t) override;

    /** Replace the steady workload point. */
    void setWorkload(SsdWorkloadPoint point);

    /**
     * Governor hook: scale the above-idle share of the device power
     * by `scale` in (0, 1] (NVMe power-state throttling).
     */
    void setPowerScale(double scale);

    /** Current throttle scale. */
    double powerScale() const
    {
        return powerScale_.load(std::memory_order_relaxed);
    }

    /** Device power of the current workload at full speed (W). */
    double fullSpeedPower() const;

    const SsdSpec &spec() const { return spec_; }

  private:
    SsdSpec spec_;
    double railVolts_;
    SharedSnapshot<SsdWorkloadPoint> workload_;
    std::atomic<double> powerScale_{1.0};
};

/**
 * Governor over an SSD model: a 5-point ladder mimicking NVMe
 * operational power states (interface/die throttling).
 */
std::unique_ptr<dut::DvfsGovernor> makeSsdGovernor(SsdDutModel &model);

} // namespace ps3::storage

#endif // PS3_STORAGE_SSD_DUT_HPP
