#include "energy/accountant.hpp"

#include <algorithm>
#include <cstdio>

#include "energy/region.hpp"
#include "obs/registry.hpp"

namespace ps3::energy {

namespace {

/** Attribution metrics (docs/OBSERVABILITY.md). */
struct Metrics
{
    obs::Counter &samples = obs::Registry::global().counter(
        "ps3_energy_samples_total",
        "Samples folded by energy accountants");
    obs::Counter &opened = obs::Registry::global().counter(
        "ps3_energy_regions_opened_total",
        "Region begin markers applied");
    obs::Counter &closed = obs::Registry::global().counter(
        "ps3_energy_regions_closed_total",
        "Region end markers applied");
    obs::Counter &stray = obs::Registry::global().counter(
        "ps3_energy_stray_end_markers_total",
        "End markers that matched no open region");
    obs::Gauge &open = obs::Registry::global().gauge(
        "ps3_energy_open_regions",
        "Regions currently open across accountants");
};

Metrics &
metrics()
{
    static Metrics m;
    return m;
}

} // namespace

EnergyAccountant::EnergyAccountant()
{
    stack_.reserve(8);
    open_.reserve(8);
}

EnergyAccountant::~EnergyAccountant()
{
    detach();
    std::lock_guard<std::mutex> lock(mutex_);
    publishSamples();
    if (!stack_.empty())
        metrics().open.sub(static_cast<std::int64_t>(stack_.size()));
}

void
EnergyAccountant::foldInterval(double dt, double watts)
{
    for (unsigned index : open_) {
        RegionStats &stats = slots_[index].stats;
        if (stats.samples == 0) {
            stats.minWatts = watts;
            stats.maxWatts = watts;
        } else {
            stats.minWatts = std::min(stats.minWatts, watts);
            stats.maxWatts = std::max(stats.maxWatts, watts);
        }
        ++stats.samples;
        stats.inclusiveSeconds += dt;
        stats.inclusiveJoules += watts * dt;
    }
    if (!stack_.empty()) {
        RegionStats &stats = slots_[stack_.back()].stats;
        stats.exclusiveSeconds += dt;
        stats.exclusiveJoules += watts * dt;
    }
}

void
EnergyAccountant::addSample(double time, double watts)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (haveSample_ && !open_.empty() && time > lastTime_)
        foldInterval(time - lastTime_, watts);
    lastTime_ = time;
    haveSample_ = true;
    if (++samplesSeen_ - samplesPublished_ >= kSamplesPublishBatch)
        publishSamples();
}

void
EnergyAccountant::publishSamples()
{
    metrics().samples.inc(samplesSeen_ - samplesPublished_);
    samplesPublished_ = samplesSeen_;
}

void
EnergyAccountant::addMarker(char marker, double time)
{
    if (!isBeginMarker(marker) && !isEndMarker(marker))
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    const unsigned index =
        static_cast<unsigned>(regionOf(marker) - 'A');
    RegionSlot &slot = slots_[index];
    if (isBeginMarker(marker)) {
        slot.used = true;
        slot.stats.region = regionOf(marker);
        ++slot.stats.entries;
        if (slot.openCount++ == 0)
            open_.push_back(index);
        stack_.push_back(index);
        // A region begun before the first sample opens at time 0 of
        // the stream; lastTime_ already tracks the resolving sample.
        (void)time;
        metrics().opened.inc();
        metrics().open.add(1);
        return;
    }
    if (slot.openCount == 0) {
        ++strayEnds_;
        metrics().stray.inc();
        return;
    }
    // Close the innermost entry of this region.
    const auto it = std::find(stack_.rbegin(), stack_.rend(), index);
    stack_.erase(std::next(it).base());
    closeRegion(index);
    metrics().closed.inc();
    metrics().open.sub(1);
}

void
EnergyAccountant::closeRegion(unsigned index)
{
    RegionSlot &slot = slots_[index];
    if (--slot.openCount == 0)
        open_.erase(std::find(open_.begin(), open_.end(), index));
}

void
EnergyAccountant::addGap(std::uint64_t records)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (unsigned index : open_)
        slots_[index].stats.gapRecords += records;
}

void
EnergyAccountant::finish()
{
    std::lock_guard<std::mutex> lock(mutex_);
    while (!stack_.empty()) {
        const unsigned index = stack_.back();
        stack_.pop_back();
        slots_[index].stats.unterminated = true;
        closeRegion(index);
        metrics().open.sub(1);
    }
    publishSamples();
    haveSample_ = false;
}

void
EnergyAccountant::attach(host::Sensor &sensor)
{
    detach();
    sensor_ = &sensor;
    sampleToken_ =
        sensor.addSampleListener([this](const host::Sample &sample) {
            addSample(sample.time, sample.totalPower());
            if (sample.marker)
                addMarker(sample.markerChar, sample.time);
        });
    gapToken_ =
        sensor.addGapListener([this](const host::GapEvent &gap) {
            addGap(gap.records);
        });
}

void
EnergyAccountant::detach()
{
    if (sensor_ == nullptr)
        return;
    sensor_->removeSampleListener(sampleToken_);
    sensor_->removeGapListener(gapToken_);
    sensor_ = nullptr;
}

void
EnergyAccountant::replay(const host::DumpFile &file)
{
    const auto &samples = file.samples();
    const auto &markers = file.markers();
    const auto &gaps = file.gaps();
    std::size_t marker_index = 0;
    std::size_t gap_index = 0;
    for (const auto &sample : samples) {
        // Holes end at gap.time; apply before the resuming sample so
        // only regions open across the hole are tainted.
        while (gap_index < gaps.size()
               && gaps[gap_index].time <= sample.time) {
            addGap(gaps[gap_index].records);
            ++gap_index;
        }
        addSample(sample.time, sample.totalPower);
        // Markers resolve on the sample with their timestamp; apply
        // after it, matching the live listener order.
        while (marker_index < markers.size()
               && markers[marker_index].time <= sample.time) {
            addMarker(markers[marker_index].marker,
                      markers[marker_index].time);
            ++marker_index;
        }
    }
    while (marker_index < markers.size()) {
        addMarker(markers[marker_index].marker,
                  markers[marker_index].time);
        ++marker_index;
    }
    finish();
}

std::vector<RegionStats>
EnergyAccountant::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<RegionStats> result;
    for (const RegionSlot &slot : slots_) {
        if (slot.used)
            result.push_back(slot.stats);
    }
    return result;
}

std::uint64_t
EnergyAccountant::samplesSeen() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return samplesSeen_;
}

std::uint64_t
EnergyAccountant::strayEndMarkers() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return strayEnds_;
}

std::string
formatRegionTable(const std::vector<RegionStats> &stats)
{
    if (stats.empty())
        return {};
    std::string out;
    char line[192];
    std::snprintf(line, sizeof line,
                  "%-6s %7s %12s %12s %12s %12s %9s %9s %9s %s\n",
                  "region", "entries", "incl_s", "incl_J", "excl_s",
                  "excl_J", "min_W", "max_W", "mean_W", "flags");
    out += line;
    for (const RegionStats &r : stats) {
        std::string flags;
        if (r.unterminated)
            flags += "unterminated ";
        if (r.gapRecords > 0)
            flags += "gaps=" + std::to_string(r.gapRecords);
        std::snprintf(line, sizeof line,
                      "%-6c %7llu %12.6f %12.6f %12.6f %12.6f "
                      "%9.4f %9.4f %9.4f %s\n",
                      r.region,
                      static_cast<unsigned long long>(r.entries),
                      r.inclusiveSeconds, r.inclusiveJoules,
                      r.exclusiveSeconds, r.exclusiveJoules,
                      r.minWatts, r.maxWatts, r.meanWatts(),
                      flags.c_str());
        out += line;
    }
    return out;
}

} // namespace ps3::energy
