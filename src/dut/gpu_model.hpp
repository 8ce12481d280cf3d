/**
 * @file
 * Phase-level GPU power model.
 *
 * Reproduces the transient structure the paper's Fig. 7 uses to argue
 * for 20 kHz sampling:
 *
 *  - NVIDIA style (RTX 4000 Ada): at kernel launch, power steps to a
 *    launch level (~95 W), then ramps towards the sustained level
 *    (~120 W) as the clock governor raises the frequency; dips appear
 *    between sequential thread-block phases; after the kernel the GPU
 *    takes over a second to decay back to idle.
 *
 *  - AMD style (W7700): power spikes to the power limit (150 W),
 *    drops sharply, ramps back up with a brief overshoot, then
 *    stabilises at the power limit; the return to idle is fast.
 *
 *  - Instant: power steps directly to the sustained level — the
 *    behaviour of short kernels under locked clocks, as used during
 *    auto-tuning (Kernel Tuner pins the clock per configuration).
 *
 * The model evaluates an immutable *program* of scheduled kernels as
 * an analytic function of time, held as a shared snapshot: the
 * firmware thread reads power from a snapshot while a control thread
 * (the auto-tuner) swaps in new programs. The firmware reads one
 * program snapshot and one power scale per channel scan block
 * (demandBlock()), so a program or scale swap takes effect at the
 * next scan block, at most ~42 us of device time later.
 */

#ifndef PS3_DUT_GPU_MODEL_HPP
#define PS3_DUT_GPU_MODEL_HPP

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/shared_snapshot.hpp"
#include "dut/loads.hpp"

namespace ps3::dut {

/** Transient envelope family at kernel launch. */
enum class LaunchEnvelope
{
    /** Step to launch power, exponential ramp to sustained. */
    StepAndRamp,
    /** Spike to the limit, sharp drop, damped ramp with overshoot. */
    SpikeDropRamp,
    /** Step directly to sustained power (locked clocks). */
    Instant,
};

/** Electrical and behavioural constants of a GPU. */
struct GpuSpec
{
    std::string name;

    /** Idle power (W). */
    double idlePower = 15.0;
    /** Board power limit / TDP (W). */
    double powerLimit = 130.0;
    /** Power level immediately after kernel launch (W). */
    double launchPower = 95.0;
    /** Default sustained power of a full-load kernel (W). */
    double sustainedPower = 120.0;
    /** Clock ramp-up time constant (s). */
    double rampTau = 0.35;
    /** Return-to-idle decay time constant (s). */
    double decayTau = 0.45;
    /** Envelope family. */
    LaunchEnvelope envelope = LaunchEnvelope::StepAndRamp;
    /** Duration of the initial spike (SpikeDropRamp only, s). */
    double spikeDuration = 0.05;
    /** Power level after the post-spike drop (SpikeDropRamp, W). */
    double dropPower = 100.0;
    /** Depth of the dip between thread-block phases (W). */
    double phaseDipDepth = 18.0;
    /** Duration of each inter-phase dip (s). */
    double phaseDipDuration = 0.004;
    /** Peak boost clock (MHz); used by the tuner's DVFS model. */
    double boostClockMHz = 2175.0;
    /** Idle/base clock (MHz). */
    double baseClockMHz = 720.0;
    /** Number of SMs / CUs; sets the tuner grid x-dimension. */
    unsigned computeUnits = 48;

    /** RTX-4000-Ada-like card (paper Fig. 7a). */
    static GpuSpec rtx4000Ada();
    /** W7700-like card (paper Fig. 7b). */
    static GpuSpec w7700();
    /** Jetson AGX Orin module (paper Sec. V-B). */
    static GpuSpec jetsonAgxOrinModule();

    /**
     * Variant of this spec for auto-tuning runs: locked clocks
     * (Instant envelope), no phase dips, fast return to idle.
     */
    GpuSpec tuningVariant() const;
};

/** A scheduled kernel execution. */
struct KernelSchedule
{
    double start = 0.0;
    double duration = 0.0;
    /** Target sustained power for this kernel (W). */
    double sustainedPower = 0.0;
    /** Number of sequential thread-block phases (0 = none). */
    unsigned phases = 0;

    double end() const { return start + duration; }
};

/**
 * GPU as a measurable multi-rail DUT.
 *
 * Thread safe: setProgram()/launchKernel()/setPowerScale() may race
 * with reads (snapshot semantics). Every element of one
 * demandBlock() sees the same program and scale; a swap shows from
 * the next block on.
 */
class GpuDutModel : public Dut
{
  public:
    /**
     * @param spec Behavioural constants.
     * @param rails Rail split policy (defaults to the PCIe 3-rail
     *        split of the paper's GPU measurement setup).
     */
    explicit GpuDutModel(GpuSpec spec,
                         std::vector<TraceDut::RailSplit> rails =
                             TraceDut::pcieThreeRail());

    unsigned railCount() const override;
    /** One program snapshot and one kernel search per block. */
    void demandBlock(unsigned rail, const double *times, std::size_t n,
                     double *watts, double *amps) override;
    double truePower(double t) override;

    /**
     * Replace the whole kernel program.
     * @param program Kernel schedule, sorted by start time and
     *        non-overlapping.
     */
    void setProgram(std::vector<KernelSchedule> program);

    /**
     * Append one kernel execution to the program.
     *
     * @param start Kernel start time (virtual seconds); must not
     *        precede the end of the last scheduled kernel.
     * @param duration Kernel execution time.
     * @param sustained_power Steady-state power of this code variant;
     *        pass 0 to use the spec default.
     * @param phases Sequential thread-block phase count.
     */
    void launchKernel(double start, double duration,
                      double sustained_power = 0.0, unsigned phases = 0);

    /** Drop all scheduled kernels; the GPU decays to idle. */
    void clearProgram();

    /** Total board power at time t (the analytic ground truth). */
    double totalPower(double t) const;

    /**
     * DVFS hook (dut::Governor): scale the above-idle share of the
     * board power by `scale` in (0, 1]. Lock-free, applies to
     * subsequent power reads.
     */
    void setPowerScale(double scale);

    /** Current DVFS power scale. */
    double powerScale() const
    {
        return powerScale_.load(std::memory_order_relaxed);
    }

    const GpuSpec &spec() const { return spec_; }

  private:
    using Program = std::vector<KernelSchedule>;

    GpuSpec spec_;
    std::vector<TraceDut::RailSplit> rails_;
    SharedSnapshot<Program> program_;
    std::atomic<double> powerScale_{1.0};

    double envelopePower(double tau, const KernelSchedule &k) const;

    /**
     * Board power at t, given `next`, the first kernel of `program`
     * starting after t (upper_bound on start).
     */
    double powerIn(const Program &program, Program::const_iterator next,
                   double t, double scale) const;
};

/**
 * SoC development kit (NVIDIA Jetson AGX Orin style): the compute
 * module plus a carrier board, powered through a single USB-C rail.
 * The paper's point: the built-in sensor sees only the module, while
 * PowerSensor3 on the USB-C input sees module + carrier board.
 */
class SocDutModel : public Dut
{
  public:
    /**
     * @param module_spec GPU/CPU module behaviour.
     * @param carrier_board_watts Constant carrier-board overhead.
     * @param usb_c_volts Negotiated USB-PD voltage.
     */
    SocDutModel(GpuSpec module_spec, double carrier_board_watts = 4.8,
                double usb_c_volts = 20.0);

    unsigned railCount() const override { return 1; }
    /** The module's block plus the carrier board. */
    void demandBlock(unsigned rail, const double *times, std::size_t n,
                     double *watts, double *amps) override;
    double truePower(double t) override;

    /** Module-only power, i.e. what the built-in sensor reports. */
    double modulePower(double t) const;

    /** Access the module model to schedule kernels. */
    GpuDutModel &module() { return module_; }
    const GpuDutModel &module() const { return module_; }

  private:
    GpuDutModel module_;
    double carrierBoardWatts_;
    double usbCVolts_;
};

} // namespace ps3::dut

#endif // PS3_DUT_GPU_MODEL_HPP
