/**
 * @file
 * Unit tests for ring buffer, MPMC bounded queue, RNG, clocks, CSV
 * writer, units and logging.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/bounded_queue.hpp"
#include "common/csv_writer.hpp"
#include "common/errors.hpp"
#include "common/logging.hpp"
#include "common/ring_buffer.hpp"
#include "common/rng.hpp"
#include "common/time_source.hpp"
#include "common/units.hpp"

namespace ps3 {
namespace {

TEST(RingBuffer, RejectsZeroCapacity)
{
    EXPECT_THROW(RingBuffer<int>(0), UsageError);
}

TEST(RingBuffer, FifoOrder)
{
    RingBuffer<int> ring(4);
    ring.push(1);
    ring.push(2);
    ring.push(3);
    EXPECT_EQ(ring.size(), 3u);
    EXPECT_EQ(ring.pop(), 1);
    EXPECT_EQ(ring.pop(), 2);
    EXPECT_EQ(ring.pop(), 3);
    EXPECT_TRUE(ring.empty());
}

TEST(RingBuffer, OverwritesOldestWhenFull)
{
    RingBuffer<int> ring(3);
    for (int i = 1; i <= 5; ++i)
        ring.push(i);
    EXPECT_TRUE(ring.full());
    EXPECT_EQ(ring.at(0), 3); // oldest retained
    EXPECT_EQ(ring.at(1), 4);
    EXPECT_EQ(ring.at(2), 5);
    EXPECT_EQ(ring.back(), 5);
}

TEST(RingBuffer, ErrorsOnInvalidAccess)
{
    RingBuffer<int> ring(2);
    EXPECT_THROW(ring.pop(), UsageError);
    EXPECT_THROW(ring.back(), UsageError);
    EXPECT_THROW(ring.at(0), UsageError);
    ring.push(1);
    EXPECT_THROW(ring.at(1), UsageError);
}

TEST(RingBuffer, ClearResets)
{
    RingBuffer<int> ring(2);
    ring.push(1);
    ring.push(2);
    ring.clear();
    EXPECT_TRUE(ring.empty());
    ring.push(9);
    EXPECT_EQ(ring.at(0), 9);
}

/** Property: wrap-around indexing stays consistent for any capacity. */
class RingBufferProperty : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(RingBufferProperty, MatchesReferenceDeque)
{
    const std::size_t capacity = GetParam();
    RingBuffer<int> ring(capacity);
    std::vector<int> reference;
    Rng rng(capacity);
    for (int i = 0; i < 500; ++i) {
        if (rng.bernoulli(0.6) || reference.empty()) {
            ring.push(i);
            reference.push_back(i);
            if (reference.size() > capacity)
                reference.erase(reference.begin());
        } else {
            ASSERT_EQ(ring.pop(), reference.front());
            reference.erase(reference.begin());
        }
        ASSERT_EQ(ring.size(), reference.size());
        for (std::size_t k = 0; k < reference.size(); ++k)
            ASSERT_EQ(ring.at(k), reference[k]);
    }
}

INSTANTIATE_TEST_SUITE_P(Capacities, RingBufferProperty,
                         ::testing::Values(1u, 2u, 3u, 7u, 64u));

TEST(Rng, DeterministicPerSeed)
{
    Rng a(5), b(5), c(6);
    for (int i = 0; i < 100; ++i) {
        const double va = a.gaussian();
        EXPECT_DOUBLE_EQ(va, b.gaussian());
    }
    // A different seed diverges immediately with high probability.
    Rng a2(5);
    bool diverged = false;
    for (int i = 0; i < 10; ++i)
        diverged = diverged || a2.gaussian() != c.gaussian();
    EXPECT_TRUE(diverged);
}

TEST(Rng, UniformRanges)
{
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-2.0, 3.0);
        EXPECT_GE(u, -2.0);
        EXPECT_LT(u, 3.0);
        const auto n = rng.uniformInt(10, 20);
        EXPECT_GE(n, 10u);
        EXPECT_LE(n, 20u);
    }
}

TEST(Rng, BernoulliExtremes)
{
    Rng rng(2);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

// ----- Gaussian draws: moments, shape and tails ----------------------
//
// One shared sample of 2^21 standard-normal draws. Every bound below
// is five sampling standard deviations of its statistic, so a correct
// generator fails one of them with odds below 1e-5.

constexpr std::size_t kNormalDraws = std::size_t{1} << 21;

const std::vector<double> &
normalSample()
{
    static const std::vector<double> draws = [] {
        std::vector<double> v(kNormalDraws);
        Rng rng(20250601);
        rng.gaussianBlock(v.data(), v.size());
        return v;
    }();
    return draws;
}

/** Standard normal CDF. */
double
phi(double x)
{
    return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

TEST(Rng, GaussianMomentsMatchStandardNormal)
{
    const auto &z = normalSample();
    const double n = static_cast<double>(z.size());
    double s1 = 0.0;
    for (double v : z)
        s1 += v;
    const double mean = s1 / n;
    double m2 = 0.0, m3 = 0.0, m4 = 0.0;
    for (double v : z) {
        const double d = v - mean;
        m2 += d * d;
        m3 += d * d * d;
        m4 += d * d * d * d;
    }
    m2 /= n;
    m3 /= n;
    m4 /= n;
    const double skew = m3 / std::pow(m2, 1.5);
    const double excess_kurtosis = m4 / (m2 * m2) - 3.0;

    EXPECT_LT(std::abs(mean), 5.0 * std::sqrt(1.0 / n));
    EXPECT_LT(std::abs(m2 - 1.0), 5.0 * std::sqrt(2.0 / n));
    EXPECT_LT(std::abs(skew), 5.0 * std::sqrt(6.0 / n));
    EXPECT_LT(std::abs(excess_kurtosis), 5.0 * std::sqrt(24.0 / n));
}

TEST(Rng, GaussianChiSquareOverEquiprobableBins)
{
    constexpr std::size_t kBins = 100;
    std::vector<double> counts(kBins, 0.0);
    for (double v : normalSample()) {
        const auto bin = static_cast<std::size_t>(kBins * phi(v));
        counts[std::min(bin, kBins - 1)] += 1.0;
    }
    const double expected =
        static_cast<double>(kNormalDraws) / static_cast<double>(kBins);
    double chi2 = 0.0;
    for (double c : counts)
        chi2 += (c - expected) * (c - expected) / expected;
    // chi^2 with k - 1 degrees of freedom: mean k - 1, variance
    // 2 (k - 1).
    const double dof = kBins - 1.0;
    EXPECT_LT(chi2, dof + 5.0 * std::sqrt(2.0 * dof));
    EXPECT_GT(chi2, dof - 5.0 * std::sqrt(2.0 * dof));
}

TEST(Rng, GaussianTailFractionsMatchNormalTails)
{
    // Beyond R every draw comes from the exponential tail method.
    const auto &z = normalSample();
    const double n = static_cast<double>(z.size());
    for (double edge : {detail::ZigguratTables::kR, 4.5}) {
        double above = 0.0, below = 0.0;
        for (double v : z) {
            above += v > edge;
            below += v < -edge;
        }
        const double p = 1.0 - phi(edge);
        const double sd_one = std::sqrt(n * p * (1.0 - p));
        const double sd_two = std::sqrt(n * 2.0 * p * (1.0 - 2.0 * p));
        EXPECT_LT(std::abs(above + below - 2.0 * n * p), 5.0 * sd_two)
            << "beyond +-" << edge;
        EXPECT_LT(std::abs(above - n * p), 5.0 * sd_one)
            << "beyond +" << edge;
        EXPECT_LT(std::abs(below - n * p), 5.0 * sd_one)
            << "beyond -" << edge;
    }
}

TEST(Rng, GaussianNoLagOneCorrelationAndBalancedSigns)
{
    const auto &z = normalSample();
    const double n = static_cast<double>(z.size());
    double lag = 0.0, sq = 0.0, positive = 0.0;
    for (std::size_t i = 0; i < z.size(); ++i) {
        sq += z[i] * z[i];
        positive += z[i] > 0.0;
        if (i > 0)
            lag += z[i] * z[i - 1];
    }
    EXPECT_LT(std::abs(lag / sq), 5.0 / std::sqrt(n));
    EXPECT_LT(std::abs(positive - 0.5 * n), 5.0 * 0.5 * std::sqrt(n));
}

TEST(Rng, GaussianBlockIsBitEqualToPerCallDraws)
{
    Rng block(42), single(42);
    std::vector<double> out(64);
    for (std::size_t n : {1u, 6u, 7u, 64u, 0u, 6u, 33u}) {
        block.gaussianBlock(out.data(), n, 1.5, 0.25);
        for (std::size_t i = 0; i < n; ++i) {
            const double expect = single.gaussian(1.5, 0.25);
            ASSERT_EQ(std::memcmp(&out[i], &expect, sizeof expect), 0)
                << "block of " << n << ", draw " << i;
        }
    }
    EXPECT_EQ(block.gaussian(), single.gaussian());
}

TEST(Rng, GaussianMeanAndSigmaScaleTheStandardDraw)
{
    Rng scaled(9), unit(9);
    for (int i = 0; i < 1000; ++i) {
        const double z = unit.gaussian();
        EXPECT_EQ(scaled.gaussian(-3.0, 0.5), -3.0 + 0.5 * z);
    }
    // Sample moments follow the parameters.
    Rng rng(10);
    std::vector<double> v(1 << 16);
    rng.gaussianBlock(v.data(), v.size(), 12.0, 3.0);
    double s1 = 0.0, s2 = 0.0;
    for (double x : v) {
        s1 += x;
        s2 += x * x;
    }
    const double n = static_cast<double>(v.size());
    const double mean = s1 / n;
    const double sd = std::sqrt(s2 / n - mean * mean);
    EXPECT_NEAR(mean, 12.0, 5.0 * 3.0 / std::sqrt(n));
    EXPECT_NEAR(sd, 3.0, 5.0 * 3.0 / std::sqrt(2.0 * n));
}

TEST(VirtualClock, AdvancesExactly)
{
    VirtualClock clock;
    EXPECT_DOUBLE_EQ(clock.now(), 0.0);
    clock.advanceMicros(50);
    EXPECT_DOUBLE_EQ(clock.now(), 50e-6);
    clock.advance(1.0);
    EXPECT_DOUBLE_EQ(clock.now(), 1.00005);
}

TEST(VirtualClock, NoDriftOverMillionsOfSteps)
{
    // 20 kHz for one simulated hour: 72 M advances of 50 us must
    // land exactly on 3600 s (integer picosecond arithmetic).
    VirtualClock clock;
    for (int i = 0; i < 72000; ++i)
        clock.advanceMicros(50000); // batched for test speed
    EXPECT_DOUBLE_EQ(clock.now(), 3600.0);
}

TEST(SteadyClock, MonotonicAndRoughlyRealTime)
{
    SteadyClock clock;
    const double t0 = clock.now();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const double t1 = clock.now();
    EXPECT_GT(t1, t0);
    EXPECT_GT(t1 - t0, 0.015);
    EXPECT_LT(t1 - t0, 1.0);
}

TEST(CsvWriter, WritesHeaderAndRows)
{
    std::ostringstream out;
    CsvWriter csv(out);
    csv.header({"a", "b"});
    csv.row({1.5, 2.25});
    csv.rowText({"x", "y"});
    EXPECT_EQ(out.str(), "a,b\n1.5,2.25\nx,y\n");
    EXPECT_EQ(csv.rowCount(), 2u);
}

TEST(CsvWriter, CustomSeparatorAndPrecision)
{
    std::ostringstream out;
    CsvWriter csv(out, '\t', 3);
    csv.row({1.23456, 2.0});
    EXPECT_EQ(out.str(), "1.23\t2\n");
}

TEST(Units, Conversions)
{
    EXPECT_DOUBLE_EQ(units::milli(115.0), 0.115);
    EXPECT_DOUBLE_EQ(units::micro(50.0), 50e-6);
    EXPECT_DOUBLE_EQ(units::kilo(20.0), 20e3);
    EXPECT_DOUBLE_EQ(units::hzToPeriod(20e3), 50e-6);
    EXPECT_DOUBLE_EQ(units::secondsToMicros(1.5), 1.5e6);
    EXPECT_DOUBLE_EQ(units::microsToSeconds(50.0), 50e-6);
    EXPECT_EQ(units::kMiB, 1048576ull);
    EXPECT_DOUBLE_EQ(units::rmsToPeakToPeak(
                         units::peakToPeakToRms(4.2)),
                     4.2);
}

TEST(Logging, LevelFilterWorks)
{
    // The sink is stderr; here we only verify the level gate.
    const auto original = Log::level();
    Log::setLevel(LogLevel::Error);
    EXPECT_EQ(Log::level(), LogLevel::Error);
    logDebug() << "suppressed";
    logInfo() << "suppressed";
    Log::setLevel(original);
}

TEST(MpmcBoundedQueue, RoundsCapacityUpToPowerOfTwo)
{
    MpmcBoundedQueue<int> tiny(1);
    EXPECT_EQ(tiny.capacity(), 4u);
    MpmcBoundedQueue<int> queue(100);
    EXPECT_EQ(queue.capacity(), 128u);
}

TEST(MpmcBoundedQueue, FifoOrderAndFullEmptySignalling)
{
    MpmcBoundedQueue<int> queue(4);
    int out = 0;
    EXPECT_FALSE(queue.tryPop(out));
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(queue.tryPush(i));
    EXPECT_FALSE(queue.tryPush(99)); // full: value rejected, not lost
    EXPECT_EQ(queue.size(), 4u);
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(queue.tryPop(out));
        EXPECT_EQ(out, i);
    }
    EXPECT_FALSE(queue.tryPop(out));

    // Slots recycle: the queue works across many wrap-arounds.
    for (int i = 0; i < 1000; ++i) {
        ASSERT_TRUE(queue.tryPush(i));
        ASSERT_TRUE(queue.tryPop(out));
        EXPECT_EQ(out, i);
    }
}

TEST(MpmcBoundedQueue, MultiProducerContentionLosesNothing)
{
    // Four producers hammer a small queue while one consumer drains
    // it; every accepted push must come out exactly once. Encoding
    // producer+sequence in the value catches duplication and tearing.
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 20000;
    MpmcBoundedQueue<int> queue(64);

    std::atomic<int> accepted{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&queue, &accepted, p] {
            for (int i = 0; i < kPerProducer; ++i) {
                if (queue.tryPush(p * kPerProducer + i))
                    accepted.fetch_add(1,
                                       std::memory_order_relaxed);
            }
        });
    }

    std::vector<int> seen(kProducers * kPerProducer, 0);
    std::atomic<bool> producing{true};
    std::thread consumer([&] {
        int value = 0;
        for (;;) {
            if (queue.tryPop(value)) {
                ++seen[static_cast<std::size_t>(value)];
            } else if (!producing.load(std::memory_order_acquire)) {
                // Producers are done and the queue read empty once
                // more: nothing can arrive after this point.
                if (!queue.tryPop(value))
                    break;
                ++seen[static_cast<std::size_t>(value)];
            }
        }
    });

    for (auto &thread : producers)
        thread.join();
    producing.store(false, std::memory_order_release);
    consumer.join();

    int total = 0;
    for (const int count : seen) {
        EXPECT_LE(count, 1); // never duplicated
        total += count;
    }
    EXPECT_EQ(total, accepted.load());
    EXPECT_GT(total, 0);
}

TEST(Errors, HierarchyIsCatchable)
{
    try {
        throw DeviceError("link down");
    } catch (const Error &e) {
        EXPECT_STREQ(e.what(), "link down");
    }
    EXPECT_THROW(throw UsageError("bad"), std::runtime_error);
    EXPECT_THROW(throw InternalError("bug"), Error);
}

} // namespace
} // namespace ps3
