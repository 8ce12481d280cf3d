#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace e2e {

std::int64_t
sliceCount(double seconds)
{
    const auto n = static_cast<std::int64_t>(
        std::ceil(seconds * 1e9 / static_cast<double>(kSliceNs) - 1e-9));
    return std::max<std::int64_t>(1, n);
}

void
reportSetups(RunResult &result, const std::vector<double> &setups)
{
    result.set("setup_s", median(setups), "s");
    std::string note = "setup trials (s):";
    for (const double s : setups)
        note += " " + formatNumber(s);
    result.notes.push_back(note);
}

void
reportWindow(RunResult &result, WindowFigures window)
{
    const SliceSeries &latency = *window.latencyUs;
    const auto keep = calmSlices(window.stealPct, kCalmStealPct);
    result.notes.push_back(describeSteal(window.stealPct, keep));
    std::string note = "speed factor per slice:";
    for (const double f : window.speedFactors) {
        char buf[16];
        std::snprintf(buf, sizeof buf, " %.3f", f);
        note += buf;
    }
    result.notes.push_back(note);
    result.notes.push_back(
        "as measured: frame_sets_per_s="
        + formatNumber(midMean(keptValues(window.rate, keep)))
        + " cpu_ns_per_record="
        + formatNumber(midMean(keptValues(window.cpuPerRecord, keep))));
    result.notes.push_back(
        describeSlices("latency at reference speed,", latency));

    for (std::size_t i = 0; i < window.speedFactors.size(); ++i) {
        window.cpuPerRecord.at(i) *= window.speedFactors[i];
        window.rate.at(i) /= window.speedFactors[i];
    }
    result.set("frame_sets_per_s", midMean(keptValues(window.rate, keep)),
               "1/s");
    result.set("latency_p50_us", latency.sliceMidMean(0.5, keep), "us");
    result.set("latency_p90_us", latency.sliceMidMean(0.9, keep), "us");
    result.set("cpu_ns_per_record",
               midMean(keptValues(window.cpuPerRecord, keep)), "ns");
}

std::string
describeSteal(const std::vector<double> &steal_pct,
              const std::vector<bool> &keep)
{
    std::string out = "CPU steal per slice (%):";
    std::size_t kept = 0;
    for (std::size_t i = 0; i < steal_pct.size(); ++i) {
        char buf[32];
        std::snprintf(buf, sizeof buf, " %.1f", steal_pct[i]);
        out += buf;
        kept += i < keep.size() && keep[i] ? 1 : 0;
    }
    return out + "; " + std::to_string(kept) + " of "
           + std::to_string(steal_pct.size()) + " slices reported";
}

std::string
describeSlices(const std::string &label, const SliceSeries &series)
{
    const auto p50 = series.slicePercentiles(0.5);
    const auto p90 = series.slicePercentiles(0.9);
    std::string out = label + " p50/p90 per slice (us):";
    for (std::size_t i = 0; i < p50.size() && i < p90.size(); ++i) {
        char buf[64];
        std::snprintf(buf, sizeof buf, " %.1f/%.1f", p50[i], p90[i]);
        out += buf;
    }
    return out;
}

double
counterValue(const ps3::obs::Snapshot &snapshot, const std::string &name)
{
    double total = 0.0;
    for (const auto &s : snapshot.samples) {
        if (s.name == name)
            total += static_cast<double>(s.value);
    }
    return total;
}

std::vector<std::uint64_t>
histogramBuckets(const ps3::obs::Snapshot &snapshot,
                 const std::string &name)
{
    std::vector<std::uint64_t> buckets;
    for (const auto &s : snapshot.samples) {
        if (s.name != name)
            continue;
        const auto &b = s.histogram.buckets;
        if (buckets.size() < b.size())
            buckets.resize(b.size(), 0);
        for (std::size_t i = 0; i < b.size(); ++i)
            buckets[i] += b[i];
    }
    return buckets;
}

std::pair<double, double>
histogramSumCount(const ps3::obs::Snapshot &snapshot,
                  const std::string &name)
{
    double sum = 0.0;
    double count = 0.0;
    for (const auto &s : snapshot.samples) {
        if (s.name != name)
            continue;
        sum += static_cast<double>(s.histogram.sum);
        count += static_cast<double>(s.histogram.count);
    }
    return {sum, count};
}

double
perRecord(double total, double records)
{
    return records > 0.0 ? total / records : 0.0;
}

void
writeSpans(const RunSpec &spec, const std::vector<const SpanLog *> &logs)
{
    const std::string path = spec.workDir + "/" + spec.tag + ".spans.csv";
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write " + path);
    out << "layer,start_ns,end_ns,cpu_ns,record_id,items\n";
    for (const SpanLog *log : logs)
        log->writeCsv(out);
}

} // namespace e2e
