/**
 * @file
 * Unit tests of the benchmark's own helpers: percentile selection and
 * its sample-count rule, tid-diff thread attribution, reference-speed
 * scaling, the device-time to frame-set mapping across the 10-bit
 * timestamp wrap, and the record accounting check. Run with `python3 e2ebench/run.py
 * --self-test`.
 */
#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "host/stream_parser.hpp"
#include "measure.hpp"
#include "obs/metrics.hpp"
#include "workloads.hpp"

namespace {

using namespace e2e;

std::vector<double>
oneToN(int n)
{
    std::vector<double> v(static_cast<std::size_t>(n));
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

// ----- percentiles ------------------------------------------------------

TEST(Percentile, NearestRankOnSortedSample)
{
    const auto v = oneToN(100);
    EXPECT_EQ(percentileSorted(v, 0.5), 50.0);
    EXPECT_EQ(percentileSorted(v, 0.9), 90.0);
    EXPECT_EQ(percentileSorted(v, 0.99), 99.0);
    EXPECT_EQ(percentileSorted(v, 1.0), 100.0);
    EXPECT_EQ(percentileSorted(v, 0.001), 1.0);
    EXPECT_EQ(percentileSorted({7.0}, 0.5), 7.0);
    // Rank ceil(0.5 * 5) = 3.
    EXPECT_EQ(percentileSorted(oneToN(5), 0.5), 3.0);
}

TEST(Percentile, RejectsEmptySampleAndBadQuantile)
{
    EXPECT_THROW(percentileSorted({}, 0.5), std::invalid_argument);
    EXPECT_THROW(percentileSorted({1.0}, 0.0), std::invalid_argument);
    EXPECT_THROW(percentileSorted({1.0}, 1.5), std::invalid_argument);
}

TEST(Percentile, SampleCountRuleNeedsTenBeyond)
{
    EXPECT_TRUE(percentileReportable(100, 0.9));
    EXPECT_FALSE(percentileReportable(99, 0.9));
    EXPECT_TRUE(percentileReportable(1000, 0.99));
    EXPECT_FALSE(percentileReportable(999, 0.99));
    EXPECT_TRUE(percentileReportable(20, 0.5));
    EXPECT_FALSE(percentileReportable(19, 0.5));
    EXPECT_FALSE(percentileReportable(0, 0.5));
}

TEST(Percentile, SummariseAppliesTheRule)
{
    EXPECT_THROW(summarise(oneToN(99)), std::runtime_error);
    auto shuffled = oneToN(500);
    std::reverse(shuffled.begin(), shuffled.end());
    const auto d = summarise(shuffled);
    EXPECT_EQ(d.count, 500u);
    EXPECT_EQ(d.p50, 250.0);
    EXPECT_EQ(d.p90, 450.0);
    EXPECT_EQ(d.max, 500.0);
    EXPECT_FALSE(d.p99Reportable);
    EXPECT_TRUE(summarise(oneToN(1000)).p99Reportable);
}

TEST(Percentile, HistogramMedianStaysInsideTheMedianBucket)
{
    ps3::obs::Histogram h;
    for (int i = 0; i < 1000; ++i)
        h.observe(700); // bucket [512, 1024)
    h.observe(5);
    std::vector<std::uint64_t> buckets(ps3::obs::Histogram::kBucketCount);
    for (std::size_t i = 0; i < buckets.size(); ++i)
        buckets[i] = h.bucketCount(i);
    const double m = histogramMedian(buckets);
    EXPECT_GE(m, 512.0);
    EXPECT_LT(m, 1024.0);
    EXPECT_EQ(histogramMedian(std::vector<std::uint64_t>(41, 0)), 0.0);
}

TEST(Percentile, SliceMidMeanIgnoresOneDisturbedSlice)
{
    // Five 1-unit slices of 100 samples; slice 3 is ten times slower.
    SliceSeries series(0, 500, 100, 100);
    for (std::int64_t t = 0; t < 500; ++t)
        EXPECT_TRUE(series.add(t, (t / 100 == 3 ? 10.0 : 1.0)
                                      * static_cast<double>(t % 100 + 1)));
    EXPECT_FALSE(series.add(500, 1.0));
    EXPECT_FALSE(series.add(-1, 1.0));
    EXPECT_EQ(series.sliceMidMean(0.9), 90.0);
    EXPECT_EQ(series.sliceMidMean(0.5), 50.0);
    EXPECT_EQ(series.overall().count, 500u);
    EXPECT_GT(series.overall().p90, 90.0);
    // Too few samples per slice for p90: the whole window answers,
    // and a window too small for it throws.
    SliceSeries sparse(0, 1000, 100);
    for (std::int64_t t = 0; t < 1000; t += 5)
        sparse.add(t, static_cast<double>(t / 5 + 1));
    EXPECT_TRUE(sparse.slicePercentiles(0.9).empty());
    EXPECT_EQ(sparse.sliceMidMean(0.9), 180.0);
    SliceSeries tiny(0, 100, 10);
    for (std::int64_t t = 0; t < 100; t += 2)
        tiny.add(t, 1.0);
    EXPECT_THROW(tiny.sliceMidMean(0.9), std::runtime_error);
    EXPECT_EQ(median({3.0, 1.0, 2.0, 10.0}), 2.5);
    // Eight values: the lowest and highest two are dropped.
    EXPECT_EQ(midMean({100.0, 1.0, 4.0, 5.0, 6.0, 7.0, -50.0, 2.0}), 4.25);
    EXPECT_EQ(midMean({3.0}), 3.0);
    EXPECT_THROW(midMean({}), std::invalid_argument);
}

TEST(Percentile, CalmSlicesDropStolenSlicesKeepingAtLeastAQuarter)
{
    const std::vector<double> steal = {0.1, 9.0, 0.0, 2.0, 30.0};
    EXPECT_EQ(calmSlices(steal, 2.0),
              (std::vector<bool>{true, false, true, true, false}));
    EXPECT_EQ(calmSlices({5.0, 6.0, 0.0, 7.0}, 2.0),
              (std::vector<bool>{false, false, true, false}));
    // Fewer than a quarter under the limit: report the calmest quarter.
    EXPECT_EQ(calmSlices({5.0, 6.0, 3.0, 8.0, 4.0, 9.0, 3.0, 7.0}, 2.0),
              (std::vector<bool>{false, false, true, false, false, false,
                                 true, false}));
    EXPECT_EQ(calmSlices({4.0, 3.0, 9.0}, 2.0),
              (std::vector<bool>{false, true, false}));
    EXPECT_EQ(keptValues({1.0, 2.0, 3.0}, {true, false, true}),
              (std::vector<double>{1.0, 3.0}));

    // Slice 1 is slow and left out; the rest set the figure.
    SliceSeries series(0, 300, 100);
    for (std::int64_t t = 0; t < 300; ++t)
        series.add(t, t / 100 == 1 ? 1000.0 : 1.0);
    EXPECT_EQ(series.sliceMidMean(0.9, {true, false, true}), 1.0);
    // Three slices are too few to trim: all three are averaged.
    EXPECT_EQ(series.sliceMidMean(0.9), 334.0);
    EXPECT_EQ(series.sliceMidMean(0.9, {false, true, false}), 1000.0);
    // Too few samples per slice: the kept slices' samples answer.
    SliceSeries sparse(0, 400, 100);
    for (std::int64_t t = 0; t < 400; t += 2)
        sparse.add(t, t / 100 == 2 ? 1000.0 : 1.0);
    EXPECT_EQ(sparse.sliceMidMean(0.9, {true, true, false, true}), 1.0);
    EXPECT_EQ(sparse.sliceMidMean(0.9), 1000.0);
    // One kept slice holds too few for p90: every slice answers.
    EXPECT_EQ(sparse.sliceMidMean(0.9, {false, false, true, false}), 1000.0);
    EXPECT_EQ(sparse.sliceMidMean(0.9, {true, false, false, false}), 1000.0);
}

// ----- machine speed --------------------------------------------------

TEST(Speed, RequestTimesScaleByTheirChunksAndAddUp)
{
    RequestSpeed speed;
    speed.begin();
    const std::int64_t first_chunk = speed.spentNs();
    EXPECT_GT(first_chunk, 0);
    const double a = speed.finish(1'000'000.0);
    const double b = speed.finish(3'000'000.0);
    EXPECT_GT(a, 0.0);
    EXPECT_GT(b, 0.0);
    EXPECT_GT(speed.spentNs(), first_chunk);
    EXPECT_EQ(speed.measuredNs(), 4'000'000);
    EXPECT_NEAR(static_cast<double>(speed.referenceNs()), a + b, 1.0);
    // The slice factor is the time-weighted mean of the requests'.
    EXPECT_DOUBLE_EQ(speedFactor(0, 0, speed.measuredNs(),
                                 speed.referenceNs()),
                     static_cast<double>(speed.referenceNs()) / 4e6);
    EXPECT_EQ(speedFactor(5, 7, 5, 7), 1.0);
    EXPECT_EQ(speedFactor(0, 0, 100, 150), 1.5);
}

// ----- tid-diff thread attribution --------------------------------------

TEST(Threads, TidDiffFindsTheStartedThreadAndItsCpu)
{
    // As the benchmark's main() does: runtime helper threads that
    // start with the first std::thread appear before the diff.
    std::thread([] {}).join();
    std::atomic<pid_t> tid{0};
    std::atomic<bool> stop{false};
    const auto before = listTids();
    std::thread worker([&] {
        tid.store(currentTid());
        volatile std::uint64_t x = 0;
        while (!stop.load())
            x = x + 1;
    });
    while (tid.load() == 0)
        std::this_thread::yield();
    const auto fresh = newTids(before, listTids());

    const std::int64_t cpu0 = threadCpuNs(tid.load());
    const std::int64_t main0 = selfThreadCpuNs();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const std::int64_t cpu1 = threadCpuNs(tid.load());
    const std::int64_t main1 = selfThreadCpuNs();
    stop.store(true);
    worker.join();
    EXPECT_EQ(fresh, std::vector<pid_t>{tid.load()});
    // The spinning worker is charged, the sleeping caller is not.
    EXPECT_GT(cpu1 - cpu0, 10'000'000);
    EXPECT_LT(main1 - main0, 10'000'000);
    EXPECT_EQ(threadCpuNs(currentTid()) / 1000000,
              selfThreadCpuNs() / 1000000);
}

TEST(Threads, OnSharedCpuConfinesEveryThreadThenRestores)
{
    std::atomic<pid_t> tid{0};
    std::atomic<bool> stop{false};
    std::thread other([&] {
        tid.store(currentTid());
        while (!stop.load())
            std::this_thread::yield();
    });
    while (tid.load() == 0)
        std::this_thread::yield();
    cpu_set_t before;
    ASSERT_EQ(::sched_getaffinity(tid.load(), sizeof before, &before), 0);
    onSharedCpu({tid.load()}, [&] {
        cpu_set_t mine;
        cpu_set_t theirs;
        ::sched_getaffinity(0, sizeof mine, &mine);
        ::sched_getaffinity(tid.load(), sizeof theirs, &theirs);
        EXPECT_EQ(CPU_COUNT(&mine), 1);
        EXPECT_TRUE(CPU_EQUAL(&mine, &theirs));
    });
    cpu_set_t after;
    ASSERT_EQ(::sched_getaffinity(tid.load(), sizeof after, &after), 0);
    EXPECT_TRUE(CPU_EQUAL(&before, &after));
    stop.store(true);
    other.join();
}

TEST(Threads, SingleNewTidRejectsZeroOrSeveral)
{
    EXPECT_THROW(singleNewTid({1, 2}, {1, 2}, "x"), std::runtime_error);
    EXPECT_THROW(singleNewTid({1}, {1, 5, 6}, "x"), std::runtime_error);
    EXPECT_EQ(newTids({1, 3}, {1, 2, 3, 4}), (std::vector<pid_t>{2, 4}));
    EXPECT_EQ(singleNewTid({1, 3}, {3, 7}, "x"), 7);
}

// ----- record stamps -----------------------------------------------------

TEST(DueTime, PrimarySetIndexSurvivesTheTimestampWrap)
{
    const PrimaryTemplate tpl = makePrimaryTemplate(42);
    ASSERT_EQ(tpl.bytes.size(),
              PrimaryTemplate::kTemplateSets * PrimaryTemplate::kBytesPerSet);
    std::int64_t delivered = 0;
    std::int64_t bad = 0;
    ps3::host::StreamParser parser([&](const ps3::host::FrameSet &set) {
        if (setIndexOfDeviceTime(set.deviceTime) != delivered)
            ++bad;
        ++delivered;
    });
    parser.setBaseMicros(0);
    // Three template cycles in chunk-sized writes, as the generator
    // sends them: 7680 sets, 375 wraps of the 10-bit counter.
    const std::int64_t chunks =
        3 * PrimaryTemplate::kTemplateSets / PrimaryTemplate::kSetsPerChunk;
    for (std::int64_t c = 0; c < chunks; ++c)
        parser.feed(tpl.chunk(static_cast<std::uint64_t>(c)),
                    PrimaryTemplate::kSetsPerChunk
                        * PrimaryTemplate::kBytesPerSet);
    // The last set completes only when a further timestamp arrives.
    EXPECT_EQ(delivered, chunks * PrimaryTemplate::kSetsPerChunk - 1);
    EXPECT_EQ(bad, 0);
    EXPECT_GT(parser.timestampWrapCount(), 300u);
    EXPECT_EQ(parser.resyncByteCount(), 0u);
}

TEST(DueTime, FleetTickRoundTripsAndFillsWholeBuckets)
{
    for (std::int64_t k : {0LL, 1LL, 19LL, 20LL, 123457LL, 3'600'000'000LL})
        EXPECT_EQ(fleetTickOfTime(fleetTimeOfTick(k)), k);
    // Mid-period stamps put exactly ticks 20j..20j+19 in 1 ms bucket j,
    // by the floor(time / period) rule the tier folder uses.
    for (std::int64_t k = 0; k < 200000; ++k)
        ASSERT_EQ(static_cast<std::int64_t>(
                      std::floor(fleetTimeOfTick(k) / 1e-3)),
                  k / 20)
            << "tick " << k;
}

// ----- accounting -------------------------------------------------------

TEST(Accounting, InvariantAndLoss)
{
    const StreamAccount ok{"ok", 100, 90, 4, 6};
    const StreamAccount short_{"short", 100, 90, 0, 5};
    const StreamAccount over{"over", 100, 101, 0, 0};
    EXPECT_TRUE(ok.balanced());
    EXPECT_EQ(ok.lost(), 10u);
    EXPECT_FALSE(short_.balanced());
    EXPECT_FALSE(over.balanced());
    EXPECT_EQ(over.lost(), 0u);
    const auto v = accountingViolations({ok, short_, over});
    ASSERT_EQ(v.size(), 2u);
    EXPECT_NE(v[0].find("short"), std::string::npos);
    EXPECT_NE(v[1].find("over"), std::string::npos);
    EXPECT_TRUE(accountingViolations({ok}).empty());
}

// ----- result line ------------------------------------------------------

TEST(Result, JsonCarriesEveryFieldAndRoundTripsNumbers)
{
    RunResult r;
    r.attempted = 12;
    r.failed = 1;
    r.set("latency_ms", 0.1 + 0.2, "ms");
    r.fail("x");
    EXPECT_EQ(resultJson(r),
              "{\"correct\": false, \"attempted\": 12, \"failed\": 1, "
              "\"metrics\": {\"latency_ms\": {\"value\": "
              "0.30000000000000004, \"unit\": \"ms\"}}}");
}

} // namespace
