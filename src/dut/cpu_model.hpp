/**
 * @file
 * CPU package power model.
 *
 * PMT (paper Sec. V-A1) measures CPUs through the RAPL interface;
 * this model provides the ground truth a RAPL simulator reads: a
 * package with per-core dynamic power, uncore/DRAM overhead, and a
 * schedule of load phases. Power transitions are much faster than on
 * GPUs (no clock-governor ramp at this granularity), so phases apply
 * instantaneously with a small exponential thermal tail.
 */

#ifndef PS3_DUT_CPU_MODEL_HPP
#define PS3_DUT_CPU_MODEL_HPP

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/shared_snapshot.hpp"
#include "dut/dut.hpp"

namespace ps3::dut {

/** Electrical constants of a CPU package. */
struct CpuSpec
{
    std::string name;
    /** Package idle power (W). */
    double idlePower = 18.0;
    /** Number of physical cores. */
    unsigned cores = 16;
    /** Dynamic power of one fully loaded core (W). */
    double perCorePower = 5.5;
    /** Uncore + memory controller adder at full load (W). */
    double uncorePower = 12.0;
    /** Thermal smoothing time constant (s). */
    double thermalTau = 0.02;

    /** A contemporary 16-core server part. */
    static CpuSpec server16Core();
};

/** One load phase: a fraction of cores busy at some intensity. */
struct CpuPhase
{
    double start = 0.0;
    double duration = 0.0;
    /** Cores active in [0, spec.cores]. */
    unsigned activeCores = 0;
    /** Per-core utilisation in [0, 1]. */
    double intensity = 1.0;

    double end() const { return start + duration; }
};

/**
 * CPU package as a measurable DUT (single EPS 12 V rail).
 *
 * Thread safe: setProgram()/setPowerScale() may race with reads.
 * Every element of one demandBlock() sees the same program and
 * scale (one snapshot and one phase search per block).
 */
class CpuDutModel : public Dut
{
  public:
    explicit CpuDutModel(CpuSpec spec);

    unsigned railCount() const override { return 1; }
    void demandBlock(unsigned rail, const double *times, std::size_t n,
                     double *watts, double *amps) override;
    double truePower(double t) override;

    /**
     * Replace the load schedule.
     * @param program Phases sorted by start, non-overlapping.
     */
    void setProgram(std::vector<CpuPhase> program);

    /** Package power at time t (ground truth for RAPL). */
    double packagePower(double t) const;

    /**
     * DVFS hook (dut::Governor): scale the above-idle share of the
     * package power by `scale` in (0, 1]. Lock-free, applies to
     * subsequent power reads.
     */
    void setPowerScale(double scale);

    /** Current DVFS power scale. */
    double powerScale() const
    {
        return powerScale_.load(std::memory_order_relaxed);
    }

    const CpuSpec &spec() const { return spec_; }

  private:
    using Program = std::vector<CpuPhase>;

    CpuSpec spec_;
    SharedSnapshot<Program> program_;
    std::atomic<double> powerScale_{1.0};

    double steadyPower(const CpuPhase &phase) const;

    /**
     * Package power at t, given `next`, the first phase of `program`
     * starting after t (upper_bound on start).
     */
    double powerIn(const Program &program, Program::const_iterator next,
                   double t, double scale) const;
};

} // namespace ps3::dut

#endif // PS3_DUT_CPU_MODEL_HPP
