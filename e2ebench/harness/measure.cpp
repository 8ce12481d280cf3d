#include "measure.hpp"

#include <dirent.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <ctime>
#include <fstream>
#include <stdexcept>

namespace e2e {

namespace {

std::int64_t
clockNs(clockid_t clock)
{
    timespec ts{};
    if (::clock_gettime(clock, &ts) != 0)
        throw std::runtime_error("clock_gettime failed");
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000
           + ts.tv_nsec;
}

} // namespace

std::int64_t
nowNs()
{
    return clockNs(CLOCK_MONOTONIC);
}

namespace {
volatile double referenceSink;
} // namespace

std::int64_t
referenceChunkNs()
{
    constexpr std::size_t kTable = 4096;
    static thread_local double table[kTable];
    const std::int64_t begin = selfThreadCpuNs();
    double sum = 0.0;
    for (std::size_t i = 0; i < kTable; ++i) {
        const double x = static_cast<double>(i) * 1e-3;
        table[i] = std::sin(x) * std::exp(-x * 1e-4)
                   + table[(i * 7) & (kTable - 1)] * 0.5;
        sum += table[i];
    }
    // Keep the work observable so the compiler cannot drop it.
    referenceSink = sum;
    return selfThreadCpuNs() - begin;
}

void
RequestSpeed::begin()
{
    const std::int64_t ns = referenceChunkNs();
    spentNs_ += ns;
    before_ = static_cast<double>(ns);
}

double
RequestSpeed::finish(double ns)
{
    const std::int64_t after = referenceChunkNs();
    spentNs_ += after;
    const double factor =
        2.0 * kReferenceChunkNs / (before_ + static_cast<double>(after));
    before_ = static_cast<double>(after);
    const double reference = ns * factor;
    measuredNs_ += std::llround(ns);
    referenceNs_ += std::llround(reference);
    return reference;
}

double
speedFactor(std::int64_t measured0, std::int64_t reference0,
            std::int64_t measured1, std::int64_t reference1)
{
    const std::int64_t measured = measured1 - measured0;
    return measured > 0 ? static_cast<double>(reference1 - reference0)
                              / static_cast<double>(measured)
                        : 1.0;
}

std::int64_t
selfThreadCpuNs()
{
    return clockNs(CLOCK_THREAD_CPUTIME_ID);
}

std::int64_t
processCpuNs()
{
    return clockNs(CLOCK_PROCESS_CPUTIME_ID);
}

pid_t
currentTid()
{
    return static_cast<pid_t>(::syscall(SYS_gettid));
}

// ----- percentiles --------------------------------------------------

namespace {

std::size_t
nearestRank(std::size_t n, double q)
{
    // ceil(q * n), guarded against q * n landing a hair above an
    // integer through rounding (0.9 * 100 = 90.00000000000001).
    const double exact = q * static_cast<double>(n);
    double rank = std::ceil(exact - 1e-9 * std::max(1.0, exact));
    rank = std::clamp(rank, 1.0, static_cast<double>(n));
    return static_cast<std::size_t>(rank);
}

} // namespace

double
median(std::vector<double> values)
{
    if (values.empty())
        throw std::invalid_argument("median of an empty sample");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
midMean(std::vector<double> values)
{
    if (values.empty())
        throw std::invalid_argument("mid-mean of an empty sample");
    std::sort(values.begin(), values.end());
    const std::size_t cut = values.size() / 4;
    double sum = 0.0;
    for (std::size_t i = cut; i < values.size() - cut; ++i)
        sum += values[i];
    return sum / static_cast<double>(values.size() - 2 * cut);
}

double
percentileSorted(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        throw std::invalid_argument("percentile of an empty sample");
    if (!(q > 0.0 && q <= 1.0))
        throw std::invalid_argument("percentile q outside (0, 1]");
    return sorted[nearestRank(sorted.size(), q) - 1];
}

bool
percentileReportable(std::size_t n, double q, std::size_t min_beyond)
{
    if (n == 0)
        return false;
    return n - nearestRank(n, q) >= min_beyond;
}

Distribution
summarise(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (!percentileReportable(n, 0.9))
        throw std::runtime_error(
            "latency sample too small for p90 (" + std::to_string(n)
            + " samples; the sample-count rule needs 10 beyond it)");
    Distribution d;
    d.count = n;
    d.p50 = percentileSorted(values, 0.5);
    d.p90 = percentileSorted(values, 0.9);
    d.p99 = percentileSorted(values, 0.99);
    d.max = values.back();
    d.p99Reportable = percentileReportable(n, 0.99);
    return d;
}

SliceSeries::SliceSeries(std::int64_t start_ns, std::int64_t end_ns,
                         std::int64_t slice_ns,
                         std::size_t reserve_per_slice)
    : start_(start_ns), sliceNs_(slice_ns)
{
    if (slice_ns <= 0 || end_ns <= start_ns)
        throw std::invalid_argument("SliceSeries: empty window");
    slices_.resize(static_cast<std::size_t>(
        (end_ns - start_ns + slice_ns - 1) / slice_ns));
    for (auto &slice : slices_)
        slice.reserve(reserve_per_slice);
}

bool
SliceSeries::add(std::int64_t at_ns, double value)
{
    if (at_ns < start_)
        return false;
    const auto i = static_cast<std::size_t>((at_ns - start_) / sliceNs_);
    if (i >= slices_.size())
        return false;
    slices_[i].push_back(static_cast<float>(value));
    return true;
}

Distribution
SliceSeries::overall() const
{
    std::vector<double> all;
    for (const auto &slice : slices_)
        all.insert(all.end(), slice.begin(), slice.end());
    return summarise(std::move(all));
}

std::vector<double>
SliceSeries::slicePercentiles(double q, const std::vector<bool> &keep) const
{
    std::vector<double> per_slice;
    for (std::size_t i = 0; i < slices_.size(); ++i) {
        const auto &slice = slices_[i];
        if (!keep.empty() && (i >= keep.size() || !keep[i]))
            continue;
        if (!percentileReportable(slice.size(), q))
            continue;
        std::vector<double> sorted(slice.begin(), slice.end());
        std::sort(sorted.begin(), sorted.end());
        per_slice.push_back(percentileSorted(sorted, q));
    }
    return per_slice;
}

double
SliceSeries::sliceMidMean(double q, const std::vector<bool> &keep) const
{
    std::size_t kept = slices_.size();
    if (!keep.empty()) {
        kept = 0;
        for (std::size_t i = 0; i < keep.size() && i < slices_.size(); ++i)
            kept += keep[i] ? 1 : 0;
    }
    auto per_slice = slicePercentiles(q, keep);
    if (!per_slice.empty() && 2 * per_slice.size() >= kept)
        return midMean(std::move(per_slice));
    std::vector<double> all;
    for (std::size_t i = 0; i < slices_.size(); ++i) {
        if (keep.empty() || (i < keep.size() && keep[i]))
            all.insert(all.end(), slices_[i].begin(), slices_[i].end());
    }
    if (!percentileReportable(all.size(), q)) {
        all.clear();
        for (const auto &slice : slices_)
            all.insert(all.end(), slice.begin(), slice.end());
    }
    if (!percentileReportable(all.size(), q))
        throw std::runtime_error(
            "latency sample too small for the percentile ("
            + std::to_string(all.size()) + " samples)");
    std::sort(all.begin(), all.end());
    return percentileSorted(all, q);
}

double
histogramMedian(const std::vector<std::uint64_t> &buckets)
{
    std::uint64_t total = 0;
    for (const auto c : buckets)
        total += c;
    if (total == 0)
        return 0.0;
    const double half = static_cast<double>(total) / 2.0;
    double below = 0.0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        const double c = static_cast<double>(buckets[i]);
        if (below + c >= half && c > 0.0) {
            if (i == 0)
                return 0.0;
            // Bucket i holds [2^(i-1), 2^i).
            const double lo = std::ldexp(1.0, static_cast<int>(i) - 1);
            const double hi = std::ldexp(1.0, static_cast<int>(i));
            return lo + (hi - lo) * (half - below) / c;
        }
        below += c;
    }
    return std::ldexp(1.0, static_cast<int>(buckets.size()) - 1);
}

// ----- threads ------------------------------------------------------

std::vector<pid_t>
listTids()
{
    std::vector<pid_t> tids;
    DIR *dir = ::opendir("/proc/self/task");
    if (!dir)
        throw std::runtime_error("cannot open /proc/self/task");
    while (const dirent *entry = ::readdir(dir)) {
        const std::string name = entry->d_name;
        if (name.empty() || name[0] < '0' || name[0] > '9')
            continue;
        tids.push_back(static_cast<pid_t>(std::stol(name)));
    }
    ::closedir(dir);
    std::sort(tids.begin(), tids.end());
    return tids;
}

std::vector<pid_t>
newTids(const std::vector<pid_t> &before,
        const std::vector<pid_t> &after)
{
    std::vector<pid_t> fresh;
    for (const pid_t tid : after) {
        if (!std::binary_search(before.begin(), before.end(), tid))
            fresh.push_back(tid);
    }
    return fresh;
}

pid_t
singleNewTid(const std::vector<pid_t> &before,
             const std::vector<pid_t> &after, const std::string &what)
{
    const auto fresh = newTids(before, after);
    if (fresh.size() != 1)
        throw std::runtime_error(
            what + " started " + std::to_string(fresh.size())
            + " threads; expected exactly one");
    return fresh.front();
}

CpuTicks
readCpuTicks()
{
    // "cpu  user nice system idle iowait irq softirq steal ..."
    std::ifstream in("/proc/stat");
    std::string label;
    in >> label;
    CpuTicks ticks;
    if (label != "cpu")
        return ticks;
    for (int field = 0; field < 8; ++field) {
        std::uint64_t value = 0;
        if (!(in >> value))
            return CpuTicks{};
        ticks.total += value;
        if (field == 7)
            ticks.steal = value;
    }
    return ticks;
}

double
stealPct(const CpuTicks &a, const CpuTicks &b)
{
    if (b.total <= a.total || b.steal < a.steal)
        return 0.0;
    return 100.0 * static_cast<double>(b.steal - a.steal)
           / static_cast<double>(b.total - a.total);
}

std::vector<bool>
calmSlices(const std::vector<double> &steal_pct, double limit_pct)
{
    std::vector<bool> keep(steal_pct.size());
    std::size_t calm = 0;
    for (std::size_t i = 0; i < steal_pct.size(); ++i) {
        keep[i] = steal_pct[i] <= limit_pct;
        calm += keep[i] ? 1 : 0;
    }
    if (4 * calm >= steal_pct.size())
        return keep;
    // Too few under the limit: keep the calmest quarter instead.
    std::vector<double> sorted = steal_pct;
    std::sort(sorted.begin(), sorted.end());
    const double cut = sorted[(sorted.size() - 1) / 4];
    for (std::size_t i = 0; i < steal_pct.size(); ++i)
        keep[i] = steal_pct[i] <= cut;
    return keep;
}

std::vector<double>
keptValues(const std::vector<double> &values, const std::vector<bool> &keep)
{
    std::vector<double> out;
    for (std::size_t i = 0; i < values.size() && i < keep.size(); ++i) {
        if (keep[i])
            out.push_back(values[i]);
    }
    return out;
}

std::int64_t
threadCpuNs(pid_t tid)
{
    // The per-thread CPU clock id the kernel derives from a tid
    // (what pthread_getcpuclockid() builds for its own threads):
    // (~tid << 3) | CPUCLOCK_PERTHREAD | CPUCLOCK_SCHED.
    const clockid_t clock = static_cast<clockid_t>(
        (~static_cast<unsigned>(tid) << 3) | 4u | 2u);
    return clockNs(clock);
}

void
onSharedCpu(const std::vector<pid_t> &others,
            const std::function<void()> &fn)
{
    std::vector<pid_t> tids{currentTid()};
    tids.insert(tids.end(), others.begin(), others.end());
    std::vector<cpu_set_t> masks(tids.size());
    for (std::size_t i = 0; i < tids.size(); ++i) {
        if (::sched_getaffinity(tids[i], sizeof masks[i], &masks[i]) != 0)
            throw std::runtime_error("sched_getaffinity failed");
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(::sched_getcpu(), &one);
    for (const pid_t tid : tids)
        ::sched_setaffinity(tid, sizeof one, &one);
    struct Restore
    {
        const std::vector<pid_t> &tids;
        const std::vector<cpu_set_t> &masks;
        ~Restore()
        {
            for (std::size_t i = tids.size(); i-- > 0;)
                ::sched_setaffinity(tids[i], sizeof masks[i], &masks[i]);
        }
    } restore{tids, masks};
    fn();
}

// ----- record stamps -------------------------------------------------

std::int64_t
setIndexOfDeviceTime(double device_time)
{
    return std::llround((std::round(device_time * 1e6) - 25.0) / 50.0);
}

double
fleetTimeOfTick(std::int64_t tick)
{
    return (static_cast<double>(tick) * 50.0 + 25.0) * 1e-6;
}

std::int64_t
fleetTickOfTime(double time)
{
    return std::llround((time * 1e6 - 25.0) / 50.0);
}

// ----- accounting ---------------------------------------------------

bool
StreamAccount::balanced() const
{
    return delivered + dropped + gap == published;
}

std::uint64_t
StreamAccount::lost() const
{
    return published > delivered ? published - delivered : 0;
}

std::vector<std::string>
accountingViolations(const std::vector<StreamAccount> &streams)
{
    std::vector<std::string> out;
    for (const auto &s : streams) {
        if (s.balanced())
            continue;
        out.push_back("accounting: " + s.name + " delivered "
                      + std::to_string(s.delivered) + " + dropped "
                      + std::to_string(s.dropped) + " + gap "
                      + std::to_string(s.gap) + " != published "
                      + std::to_string(s.published));
    }
    return out;
}

// ----- deterministic inputs -----------------------------------------

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

// ----- results ------------------------------------------------------

void
RunResult::fail(const std::string &problem)
{
    correct = false;
    problems.push_back(problem);
}

void
RunResult::set(const std::string &name, double value,
               const std::string &unit)
{
    metrics[name] = Metric{value, unit};
}

std::string
formatNumber(double value)
{
    if (!std::isfinite(value))
        return "0";
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), value);
    return std::string(buf, res.ptr);
}

std::string
resultJson(const RunResult &result)
{
    std::string out = "{\"correct\": ";
    out += result.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(result.attempted);
    out += ", \"failed\": " + std::to_string(result.failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, metric] : result.metrics) {
        if (!first)
            out += ", ";
        first = false;
        out += "\"" + name + "\": {\"value\": "
               + formatNumber(metric.value) + ", \"unit\": \""
               + metric.unit + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace e2e
