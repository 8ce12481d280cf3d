/**
 * @file
 * Measurement helpers shared by the benchmark workloads: clocks,
 * percentiles with their sample-count rule, per-thread CPU time by
 * thread id, the reference-speed scaling, the record stamps of the
 * net workloads and the record accounting invariant. Everything here is unit-tested by
 * tests/test_measure.cpp.
 */
#ifndef E2EBENCH_MEASURE_HPP
#define E2EBENCH_MEASURE_HPP

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace e2e {

/** Monotonic clock (CLOCK_MONOTONIC, same as steady_clock), ns. */
std::int64_t nowNs();

/** CPU time of the calling thread, ns. */
std::int64_t selfThreadCpuNs();

/** CPU time (user + sys) of the whole process, ns. */
std::int64_t processCpuNs();

/** Kernel thread id of the caller. */
pid_t currentTid();

// ----- percentiles --------------------------------------------------

/** Median of a non-empty sample (mean of the middle two when even). */
double median(std::vector<double> values);

/**
 * Mean of the middle half of a non-empty sample: floor(n / 4) values
 * are dropped at each end. Robust to a disturbed quarter like the
 * median, but it uses more of the sample.
 */
double midMean(std::vector<double> values);

/**
 * Nearest-rank percentile of an ascending-sorted sample:
 * the value at rank ceil(q * n). q in (0, 1].
 * @throws std::invalid_argument on an empty sample or q out of range.
 */
double percentileSorted(const std::vector<double> &sorted, double q);

/**
 * The sample-count rule: a percentile is reported only when at least
 * `min_beyond` samples lie above its rank (n - ceil(q * n)).
 */
bool percentileReportable(std::size_t n, double q,
                          std::size_t min_beyond = 10);

/** Summary of one latency sample set (all in the sample's unit). */
struct Distribution
{
    std::size_t count = 0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
    /** False when p99 fails the sample-count rule. */
    bool p99Reportable = false;
};

/**
 * Sort and summarise. p50 and p90 must pass the sample-count rule.
 * @throws std::runtime_error when they do not.
 */
Distribution summarise(std::vector<double> values);

/**
 * Samples of one measured window, kept per slice of `slice_ns` so a
 * run reports the mid-mean over its slices: a burst of outside load
 * moves one slice's figure, not the run's.
 */
class SliceSeries
{
  public:
    SliceSeries(std::int64_t start_ns, std::int64_t end_ns,
                std::int64_t slice_ns, std::size_t reserve_per_slice = 0);

    /** Record `value` in the slice holding `at_ns`; false outside. */
    bool add(std::int64_t at_ns, double value);

    /** Summary over every sample of the window. */
    Distribution overall() const;

    /**
     * Each kept slice's q-percentile, skipping slices whose sample
     * count fails the rule for q. An empty `keep` keeps every slice.
     */
    std::vector<double>
    slicePercentiles(double q, const std::vector<bool> &keep = {}) const;

    /**
     * midMean of slicePercentiles(q, keep) when at least half the kept
     * slices pass the sample-count rule for q; otherwise the
     * q-percentile of every sample of the kept slices, or of every
     * slice when the kept ones hold too few for the rule.
     * @throws std::runtime_error when the whole window fails the rule.
     */
    double sliceMidMean(double q, const std::vector<bool> &keep = {}) const;

  private:
    std::int64_t start_;
    std::int64_t sliceNs_;
    std::vector<std::vector<float>> slices_;
};

/**
 * p50 of an obs::Histogram delta (log2 buckets, see
 * obs/metrics.hpp), interpolated linearly inside the bucket holding
 * the median. Returns 0 for an empty histogram.
 */
double histogramMedian(const std::vector<std::uint64_t> &buckets);

// ----- threads ------------------------------------------------------

/** Kernel thread ids of this process, ascending. */
std::vector<pid_t> listTids();

/** Tids present in `after` but not in `before`. */
std::vector<pid_t> newTids(const std::vector<pid_t> &before,
                           const std::vector<pid_t> &after);

/**
 * The one thread a constructor started: diff the task list taken
 * before and after it.
 * @throws std::runtime_error unless exactly one tid appeared.
 */
pid_t singleNewTid(const std::vector<pid_t> &before,
                   const std::vector<pid_t> &after,
                   const std::string &what);

/** Machine-wide CPU ticks from /proc/stat (all CPUs). */
struct CpuTicks
{
    std::uint64_t steal = 0;
    std::uint64_t total = 0;
};

CpuTicks readCpuTicks();

/**
 * Share of the machine's CPU time the hypervisor took away between
 * two readings (%): outside load the run could not see otherwise.
 */
double stealPct(const CpuTicks &a, const CpuTicks &b);

/**
 * Slices to report: those whose steal share is at most `limit_pct`,
 * when they are at least a quarter of all; otherwise the calmest
 * quarter, every slice with at most the steal share at the first
 * quartile's rank.
 */
std::vector<bool> calmSlices(const std::vector<double> &steal_pct,
                             double limit_pct);

/** The values whose `keep` flag is set. */
std::vector<double> keptValues(const std::vector<double> &values,
                               const std::vector<bool> &keep);

/** CPU time of any thread of this process by tid, ns. */
std::int64_t threadCpuNs(pid_t tid);

// ----- machine speed ------------------------------------------------

/**
 * CPU time of one reference chunk at reference speed, ns: figures
 * are scaled to a machine on which a chunk takes this long.
 */
inline constexpr double kReferenceChunkNs = 100'000.0;

/**
 * Run one chunk of fixed reference work on the calling thread
 * (sin/exp arithmetic over a 32 KiB table, none of it the program's
 * code) and return the thread CPU time it took, ns.
 */
std::int64_t referenceChunkNs();

/**
 * Closed-loop request times at reference speed. The CPUs of a shared
 * virtual machine differ in speed by up to 1.7x from one another and
 * from minute to minute as the host's other guests come and go;
 * dividing that out keeps runs made at different times, on different
 * CPUs, comparable. The thread that issues the requests runs a
 * reference chunk before the first request and after each one, on
 * the CPU the work runs on; a request's factor is kReferenceChunkNs
 * over the mean of the chunks on either side of it. The running
 * totals may be read from any thread.
 */
class RequestSpeed
{
  public:
    /** Run the chunk before the first request. */
    void begin();

    /**
     * Close a request that took `ns` as measured: run the next chunk
     * and return the request's time at reference speed, ns.
     */
    double finish(double ns);

    /** Request time so far as measured, ns. */
    std::int64_t measuredNs() const { return measuredNs_.load(); }

    /** Request time so far at reference speed, ns. */
    std::int64_t referenceNs() const { return referenceNs_.load(); }

    /** Thread CPU spent on chunks so far, ns (not the program's). */
    std::int64_t spentNs() const { return spentNs_.load(); }

  private:
    double before_ = kReferenceChunkNs;
    std::atomic<std::int64_t> measuredNs_{0};
    std::atomic<std::int64_t> referenceNs_{0};
    std::atomic<std::int64_t> spentNs_{0};
};

/**
 * Time-weighted speed factor of the requests that ended between two
 * readings of a RequestSpeed's totals; 1 when none did.
 */
double speedFactor(std::int64_t measured0, std::int64_t reference0,
                   std::int64_t measured1, std::int64_t reference1);

/**
 * Run `fn` with the caller and the threads `others` all confined to
 * the CPU the caller is on, then restore every affinity mask.
 */
void onSharedCpu(const std::vector<pid_t> &others,
                 const std::function<void()> &fn);

// ----- record stamps -------------------------------------------------

/**
 * Frame set index of a host device time on the primary stream.
 *
 * The benchmark's template stamps set n with the 10-bit counter
 * value (25 + 50 n) mod 1024; with the device clock synced to 0 (as
 * firmware::WireStub reports), StreamParser unwraps that onto
 * 25 + 50 n microseconds. Inverting the unwrapped time is exact
 * because every stamp is a whole microsecond.
 */
std::int64_t setIndexOfDeviceTime(double device_time);

/**
 * Fleet records carry their tick in DumpRecord::time: tick k is
 * stamped k * 50 us + 25 us (mid-period, like the device's own
 * stamps, so 1 ms tier buckets hold exactly 20 ticks).
 */
double fleetTimeOfTick(std::int64_t tick);

/** Inverse of fleetTimeOfTick. */
std::int64_t fleetTickOfTime(double time);

// ----- accounting ---------------------------------------------------

/** Record accounting of one stream after drain. */
struct StreamAccount
{
    std::string name;
    std::uint64_t published = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t gap = 0;

    /** delivered + dropped + gap == published (ROADMAP aim 3). */
    bool balanced() const;
    /** published - delivered, clamped at 0. */
    std::uint64_t lost() const;
};

/** Human-readable violations; empty when every stream balances. */
std::vector<std::string>
accountingViolations(const std::vector<StreamAccount> &streams);

// ----- deterministic inputs -----------------------------------------

/** SplitMix64 step: the benchmark's seeded value source. */
std::uint64_t mix64(std::uint64_t x);

// ----- results ------------------------------------------------------

/** One printed metric. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What a workload run reports. */
struct RunResult
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, Metric> metrics;
    /** Output-check failures (printed, and they clear `correct`). */
    std::vector<std::string> problems;
    /** Extra diagnostic lines printed before the result line. */
    std::vector<std::string> notes;

    void fail(const std::string &problem);
    void set(const std::string &name, double value,
             const std::string &unit);
};

/** The result line: {"correct":..,"attempted":..,"failed":..,
 *  "metrics":{name:{"value":..,"unit":..}}}. */
std::string resultJson(const RunResult &result);

/** Shortest round-trip decimal form of a double. */
std::string formatNumber(double value);

} // namespace e2e

#endif // E2EBENCH_MEASURE_HPP
