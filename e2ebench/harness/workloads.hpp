/**
 * @file
 * The three benchmark workloads and what they share. Each run
 * function sets up its stack several times (setup_s is the median),
 * measures one window of `seconds`, drains, checks every output and
 * returns the end-to-end metrics — plus the per-layer ones when
 * `traced`.
 */
#ifndef E2EBENCH_WORKLOADS_HPP
#define E2EBENCH_WORKLOADS_HPP

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "firmware/protocol.hpp"
#include "host/state.hpp"
#include "measure.hpp"
#include "obs/registry.hpp"
#include "trace.hpp"

namespace e2e {

/** One workload invocation. */
struct RunSpec
{
    std::uint64_t seed = 1;
    /** Length of the measured window. */
    double seconds = 10.0;
    /** Record spans and per-thread CPU (the per-layer run). */
    bool traced = false;
    /**
     * Confine the net workloads' threads to one CPU while measuring
     * (end-to-end runs). Both windows of a traced run leave them
     * spread, so wall-clock spans of one layer are not stretched by
     * the other layers' threads and the two windows compare.
     */
    bool pinned = true;
    /** Directory for trace output and unix sockets (relative). */
    std::string workDir;
    /** Tag for file names. */
    std::string tag;
};

/**
 * The primary stream's pre-encoded device output: kTemplateSets
 * frame sets of all eight channels (four pairs) with seeded 10-bit
 * levels, and the calibrated values a PowerSensor must turn each
 * set into.
 */
struct PrimaryTemplate
{
    /** lcm of the 512-set timestamp cycle and the 20-set chunk. */
    static constexpr unsigned kTemplateSets = 2560;
    static constexpr unsigned kSetsPerChunk = 20;
    static constexpr std::size_t kBytesPerSet =
        2 * (1 + ps3::firmware::kNumChannels);

    ps3::firmware::DeviceConfig config{};
    std::vector<std::uint8_t> bytes;
    std::vector<std::array<double, ps3::host::kMaxPairs>> volts;
    std::vector<std::array<double, ps3::host::kMaxPairs>> amps;

    /** Bytes of chunk `c` (chunks repeat every 128). */
    const std::uint8_t *
    chunk(std::uint64_t c) const
    {
        return bytes.data()
               + (c % (kTemplateSets / kSetsPerChunk)) * kSetsPerChunk
                     * kBytesPerSet;
    }
};

PrimaryTemplate makePrimaryTemplate(std::uint64_t seed);

RunResult runSimRig(const RunSpec &spec);
RunResult runPrimaryStream(const RunSpec &spec);
RunResult runFleetFanout(const RunSpec &spec);

/** Setups per run; setup_s reports their median. */
inline constexpr int kSetupTrials = 15;

/** Unmeasured run-in between the last setup and the window. */
inline constexpr std::int64_t kWarmupNs = 500'000'000;

/** The window is measured in slices of this length; e2e metrics are
 *  mid-means (midMean) over the slices. */
inline constexpr std::int64_t kSliceNs = 250'000'000;

/** Whole slices covering `seconds` (at least one). */
std::int64_t sliceCount(double seconds);

/**
 * Slices in which the hypervisor took more than this share of the
 * machine's CPU are left out of the end-to-end figures (see
 * calmSlices()).
 */
inline constexpr double kCalmStealPct = 2.0;

/** "CPU steal per slice (%): ... ; N of M slices reported". */
std::string describeSteal(const std::vector<double> &steal_pct,
                          const std::vector<bool> &keep);

/** Set setup_s to the median of the setup trials and note them all. */
void reportSetups(RunResult &result, const std::vector<double> &setups);

/** "label p50/p90 per slice: a/b c/d ..." for the run notes. */
std::string describeSlices(const std::string &label,
                           const SliceSeries &series);

/** A measured window's figures per slice (slice i runs from
 *  bounds[i] to bounds[i + 1]), as measured. */
struct WindowFigures
{
    std::vector<std::int64_t> bounds;
    /** Records per second. */
    std::vector<double> rate;
    /** Program CPU per record, ns. */
    std::vector<double> cpuPerRecord;
    std::vector<double> stealPct;
    /**
     * Per slice, the factor a time measured in it is multiplied by to
     * give its time at reference speed (see RequestSpeed).
     */
    std::vector<double> speedFactors;
    /** Latency samples in the same slices, already at reference speed. */
    const SliceSeries *latencyUs = nullptr;
};

/**
 * Set frame_sets_per_s, latency_p50_us, latency_p90_us and
 * cpu_ns_per_record: each slice's figure at reference speed (CPU
 * times multiplied by the slice's speed factor, rates divided by
 * it), then the mid-mean over the slices calmSlices() keeps. Notes
 * the steal and speed per slice, the figures as measured and the
 * latency per slice.
 */
void reportWindow(RunResult &result, WindowFigures window);


/** Sum of a counter or gauge over every label set. */
double counterValue(const ps3::obs::Snapshot &snapshot,
                    const std::string &name);

/** Bucket counts of a histogram summed over every label set. */
std::vector<std::uint64_t>
histogramBuckets(const ps3::obs::Snapshot &snapshot,
                 const std::string &name);

/** Sum and count of a histogram over every label set. */
std::pair<double, double>
histogramSumCount(const ps3::obs::Snapshot &snapshot,
                  const std::string &name);

/** A per-layer metric value divided by a record count (0 if none). */
double perRecord(double total, double records);

/** Write the kept spans of every log to `<workDir>/<tag>.spans.csv`. */
void writeSpans(const RunSpec &spec,
                const std::vector<const SpanLog *> &logs);

} // namespace e2e

#endif // E2EBENCH_WORKLOADS_HPP
