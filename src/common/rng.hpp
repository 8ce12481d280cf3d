/**
 * @file
 * Deterministic random-number utilities.
 *
 * Every stochastic element of the simulation (sensor noise, SSD
 * workload addresses, tuner trial jitter) owns its own Rng instance
 * seeded explicitly, so experiments are reproducible bit-for-bit and
 * independent of each other: adding noise samples to one sensor never
 * perturbs another sensor's stream.
 *
 * The engine is xoshiro256++ (Blackman & Vigna, "Scrambled linear
 * pseudorandom number generators", ACM TOMS 2021): 32 bytes of state,
 * seeded by expanding the 64-bit seed through splitmix64. Gaussian
 * draws use a 256-layer ziggurat (Marsaglia & Tsang, "The ziggurat
 * method for generating random variables", J. Stat. Softw. 2000).
 * Each draw takes the layer index (bits 0-7), the sign (bit 8) and a
 * 53-bit magnitude (bits 11-63) from disjoint bits of one 64-bit
 * output; sharing bits between index and magnitude correlates them
 * (Doornik, "An improved ziggurat method", 2005). About 98.5 % of
 * draws end at the first table comparison; the rest take the wedge
 * test or, in the base strip beyond R, Marsaglia's exact exponential
 * tail.
 * Uniform, integer and Bernoulli draws use the std:: distributions on
 * the same engine.
 */

#ifndef PS3_COMMON_RNG_HPP
#define PS3_COMMON_RNG_HPP

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numbers>
#include <random>

namespace ps3 {

namespace detail {

/**
 * xoshiro256++ 1.0, seeded through splitmix64. A standard uniform
 * random bit generator, so it drives any std:: distribution.
 */
class Xoshiro256pp
{
  public:
    using result_type = std::uint64_t;

    explicit Xoshiro256pp(std::uint64_t seed)
    {
        for (auto &word : s_) {
            seed += 0x9e3779b97f4a7c15ull;
            std::uint64_t z = seed;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            word = z ^ (z >> 31);
        }
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type
    max()
    {
        return std::numeric_limits<result_type>::max();
    }

    result_type
    operator()()
    {
        const std::uint64_t result = std::rotl(s_[0] + s_[3], 23) + s_[0];
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);
        return result;
    }

  private:
    std::array<std::uint64_t, 4> s_{};
};

/**
 * Ziggurat tables for the unnormalised density f(x) = exp(-x^2 / 2).
 * Layer i (0..255) spans x in [0, x[i]] and heights f(x[i])..f(x[i+1]);
 * every layer has the same area. Layer 0 is the base strip: the
 * rectangle [0, R] x [0, f(R)] plus the tail beyond R, folded into a
 * virtual width x[0] = area / f(R).
 */
struct ZigguratTables
{
    /** Tail start R of the 256-layer ziggurat (Marsaglia & Tsang). */
    static constexpr double kR = 3.6541528853610088;

    /** Layer edges; x[1] = R, x[256] = 0. */
    std::array<double, 257> x;
    /** f(x[i]); f[256] = 1. */
    std::array<double, 257> f;
    /** x[i] * 2^-53, mapping a 53-bit magnitude onto layer i. */
    std::array<double, 256> scale;
};

/** Build the tables from R by the layer recursion. */
inline ZigguratTables
buildZigguratTables()
{
    constexpr double r = ZigguratTables::kR;
    const auto density = [](double x) { return std::exp(-0.5 * x * x); };
    // Common layer area: the base strip's rectangle plus its tail.
    const double area =
        r * density(r)
        + std::sqrt(std::numbers::pi / 2.0) * std::erfc(r / std::sqrt(2.0));

    ZigguratTables t{};
    t.x[0] = area / density(r);
    t.x[1] = r;
    for (std::size_t i = 1; i < 255; ++i)
        t.x[i + 1] = std::sqrt(-2.0 * std::log(area / t.x[i]
                                               + density(t.x[i])));
    t.x[256] = 0.0;
    for (std::size_t i = 0; i < 256; ++i) {
        t.f[i] = density(t.x[i]);
        t.scale[i] = t.x[i] * 0x1p-53;
    }
    t.f[256] = 1.0;
    return t;
}

/**
 * Built once during static initialisation. An inline variable is
 * initialised before any later definition in every translation unit
 * that includes this header, so seeded Rng globals see full tables.
 */
inline const ZigguratTables kZiggurat = buildZigguratTables();

} // namespace detail

/** Seeded xoshiro256++ engine with common distributions. */
class Rng
{
  public:
    /** @param seed Seed; equal seeds give equal streams. */
    explicit Rng(std::uint64_t seed) : engine_(seed) {}

    /** Standard-normal draw scaled to the given sigma and mean. */
    double
    gaussian(double mean = 0.0, double sigma = 1.0)
    {
        return mean + sigma * standardNormal(engine_);
    }

    /**
     * Fill a block with Gaussian draws. Draw-for-draw identical to n
     * calls of gaussian(): batch consumers (the scan-block sensor
     * sampling) produce the same stream as per-sample consumers.
     */
    void
    gaussianBlock(double *out, std::size_t n, double mean = 0.0,
                  double sigma = 1.0)
    {
        // A local copy keeps the engine state in registers.
        detail::Xoshiro256pp engine = engine_;
        for (std::size_t i = 0; i < n; ++i)
            out[i] = mean + sigma * standardNormal(engine);
        engine_ = engine;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return std::uniform_real_distribution<double>(lo, hi)(engine_);
    }

    /** Uniform integer in [lo, hi] (inclusive). */
    std::uint64_t
    uniformInt(std::uint64_t lo, std::uint64_t hi)
    {
        return std::uniform_int_distribution<std::uint64_t>(lo,
                                                            hi)(engine_);
    }

    /** Bernoulli draw with probability p of true. */
    bool
    bernoulli(double p)
    {
        return std::bernoulli_distribution(p)(engine_);
    }

  private:
    /** One N(0, 1) draw by the ziggurat. */
    static double
    standardNormal(detail::Xoshiro256pp &engine)
    {
        const auto &zig = detail::kZiggurat;
        for (;;) {
            const std::uint64_t bits = engine();
            const unsigned layer = bits & 0xff;
            const std::uint64_t sign = (bits & 0x100) << 55;
            double x = static_cast<double>(bits >> 11) * zig.scale[layer];
            if (x >= zig.x[layer + 1]) [[unlikely]] {
                if (layer == 0) {
                    x = tail(engine);
                } else {
                    // Wedge: accept under the density, else redraw.
                    const double u = (engine() >> 11) * 0x1p-53;
                    if (zig.f[layer]
                            + (zig.f[layer + 1] - zig.f[layer]) * u
                        >= std::exp(-0.5 * x * x))
                        continue;
                }
            }
            return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x)
                                         | sign);
        }
    }

    /**
     * Marsaglia's tail method: an exact draw from the normal beyond
     * R. The (0, 1] uniforms keep log() finite.
     */
    static double
    tail(detail::Xoshiro256pp &engine)
    {
        constexpr double r = detail::ZigguratTables::kR;
        for (;;) {
            const double a = -std::log(((engine() >> 11) + 1) * 0x1p-53) / r;
            const double b = -std::log(((engine() >> 11) + 1) * 0x1p-53);
            if (b + b >= a * a)
                return r + a;
        }
    }

    detail::Xoshiro256pp engine_;
};

} // namespace ps3

#endif // PS3_COMMON_RNG_HPP
