/**
 * @file
 * Per-region energy attribution over a 20 kHz sample stream.
 *
 * EnergyAccountant folds a time-ordered stream of samples, region
 * markers and gap annotations into per-region statistics: entry
 * count, inclusive and exclusive time and energy, and min/max/mean
 * power. It is the same engine live and offline:
 *
 *  - live: attach() registers sample/gap listeners on a
 *    host::Sensor and the accountant runs on the reader thread
 *    (BM_RegionAttribution measures the per-sample cost);
 *  - offline: replay() feeds a parsed DumpFile (text or .ps3b)
 *    through the identical event path, so `psdump --regions`
 *    reproduces the live numbers exactly.
 *
 * Accounting rules (chosen to match DumpFile::energy exactly):
 *
 *  - energy is integrated at the recorded cadence: the interval
 *    ending at sample t contributes watts(t) * dt;
 *  - a marker resolves on a sample; the interval ending at that
 *    sample is attributed *before* the marker takes effect. A region
 *    begun at tb and ended at te therefore owns exactly the
 *    intervals DumpFile::energy(tb, te) integrates;
 *  - *inclusive* covers the whole time a region is open, nested
 *    children included; *exclusive* covers only the intervals where
 *    the region is innermost. Siblings at the same depth never
 *    overlap, so exclusive sums to the parent's inclusive minus its
 *    children's inclusive;
 *  - regions may repeat (stats accumulate across entries) and nest
 *    re-entrantly; an end marker with no matching open region is
 *    counted as stray and ignored; regions still open at the end of
 *    the stream are closed at the last sample and flagged.
 *
 * Stream gaps (host::GapEvent / 'G' records) are not excised — the
 * interval spanning a hole integrates through it, exactly as the
 * offline reader does — but every open region counts the hole's
 * records in RegionStats::gapRecords so downstream consumers can
 * distrust tainted numbers.
 */

#ifndef PS3_ENERGY_ACCOUNTANT_HPP
#define PS3_ENERGY_ACCOUNTANT_HPP

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "host/dump_reader.hpp"
#include "host/sensor.hpp"

namespace ps3::energy {

/** Accumulated statistics of one region. */
struct RegionStats
{
    /** Region id ('A'..'Z'). */
    char region = '\0';
    /** Times the region was entered. */
    std::uint64_t entries = 0;
    /** Samples folded while the region was open (inclusive). */
    std::uint64_t samples = 0;
    /** Open time, children included (s). */
    double inclusiveSeconds = 0.0;
    /** Energy while open, children included (J). */
    double inclusiveJoules = 0.0;
    /** Open time with this region innermost (s). */
    double exclusiveSeconds = 0.0;
    /** Energy with this region innermost (J). */
    double exclusiveJoules = 0.0;
    /** Lowest instantaneous power seen while open (W). */
    double minWatts = 0.0;
    /** Highest instantaneous power seen while open (W). */
    double maxWatts = 0.0;
    /** Stream-gap records that fell inside the region. */
    std::uint64_t gapRecords = 0;
    /** True when the stream ended with the region still open. */
    bool unterminated = false;

    /** Mean power over the inclusive window (W). */
    double
    meanWatts() const
    {
        return inclusiveSeconds > 0.0
                   ? inclusiveJoules / inclusiveSeconds
                   : 0.0;
    }
};

/** The attribution engine (see file comment for the rules). */
class EnergyAccountant
{
  public:
    EnergyAccountant();
    ~EnergyAccountant();

    EnergyAccountant(const EnergyAccountant &) = delete;
    EnergyAccountant &operator=(const EnergyAccountant &) = delete;

    // ---- event feed (one thread; attach() uses the reader thread)

    /**
     * Fold one sample. `watts` is the instantaneous total power;
     * the interval since the previous sample is attributed to every
     * open region.
     */
    void addSample(double time, double watts);

    /**
     * Apply one marker (resolved at `time`, i.e. on the sample fed
     * immediately before). Non-region markers are ignored.
     */
    void addMarker(char marker, double time);

    /** Record a stream hole against every open region. */
    void addGap(std::uint64_t records);

    /**
     * End of stream: close any open regions at the last sample time
     * and flag them unterminated. Idempotent; further samples start
     * a fresh interval chain.
     */
    void finish();

    // ---- live attachment

    /**
     * Attach to a sensor: registers a sample listener (folding
     * markers and power per sample) and a gap listener. Detach with
     * detach() or destruction. One sensor at a time.
     */
    void attach(host::Sensor &sensor);

    /** Remove the listeners registered by attach(). */
    void detach();

    // ---- offline replay

    /**
     * Feed a parsed dump file through the same event path: samples,
     * markers and gaps merged in time order (markers after the
     * sample they resolved on), then finish(). Call on a fresh
     * accountant to reproduce the live numbers for that stream.
     */
    void replay(const host::DumpFile &file);

    // ---- results

    /**
     * Snapshot the per-region statistics, ordered by region id.
     * Thread safe against the feed side; regions still open report
     * their totals as of the last sample folded.
     */
    std::vector<RegionStats> snapshot() const;

    /** Samples folded so far. */
    std::uint64_t samplesSeen() const;

    /** End markers that matched no open region. */
    std::uint64_t strayEndMarkers() const;

  private:
    static constexpr unsigned kRegionCount = 26;
    /**
     * Samples folded between publishes to the shared
     * ps3_energy_samples_total counter (about 50 ms at 20 kHz): one
     * atomic add per sample would cost the reader thread as much as
     * the fold itself.
     */
    static constexpr std::uint64_t kSamplesPublishBatch = 1024;

    struct RegionSlot
    {
        RegionStats stats{};
        /** Open nesting count (re-entrant regions). */
        unsigned openCount = 0;
        bool used = false;
    };

    void foldInterval(double dt, double watts);
    void closeRegion(unsigned index);
    /** Add the samples folded since the last publish to the metric. */
    void publishSamples();

    mutable std::mutex mutex_;
    std::array<RegionSlot, kRegionCount> slots_;
    /** Innermost-first open stack (region indices, duplicates ok). */
    std::vector<unsigned> stack_;
    /** Indices with openCount > 0 (inclusive fold list). */
    std::vector<unsigned> open_;
    double lastTime_ = 0.0;
    bool haveSample_ = false;
    std::uint64_t samplesSeen_ = 0;
    std::uint64_t samplesPublished_ = 0;
    std::uint64_t strayEnds_ = 0;

    host::Sensor *sensor_ = nullptr;
    std::uint64_t sampleToken_ = 0;
    std::uint64_t gapToken_ = 0;
};

/**
 * Human-readable region table (psdump --regions, pstest, tests):
 * one row per region with entries, inclusive/exclusive time and
 * energy, min/max/mean power and taint flags. Returns an empty
 * string when no regions were seen.
 */
std::string formatRegionTable(const std::vector<RegionStats> &stats);

} // namespace ps3::energy

#endif // PS3_ENERGY_ACCOUNTANT_HPP
