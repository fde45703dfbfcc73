/**
 * @file
 * Deterministic random number generation for the simulator.
 *
 * All randomness in the project flows through named Rng streams seeded
 * from the experiment configuration, so a given configuration always
 * produces a bit-identical simulation. We use SplitMix64 for seeding
 * and xoshiro256** as the main generator (fast, high quality, and
 * trivially reproducible across platforms, unlike std::mt19937
 * distributions whose outputs are implementation-defined).
 */

#ifndef IPREF_UTIL_RNG_HH
#define IPREF_UTIL_RNG_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "util/logging.hh"

namespace ipref
{

/** SplitMix64 step; used for seed expansion and hashing. */
constexpr std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Stable 64-bit hash of a string (FNV-1a), for named seed streams. */
constexpr std::uint64_t
hashString(std::string_view s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/**
 * xoshiro256** generator with convenience distributions.
 *
 * Distributions are implemented by hand (not via <random>) so that
 * results are identical on every standard library implementation.
 */
class Rng
{
  public:
    /** Construct from a root seed; use fork() for derived streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        std::uint64_t sm = seed;
        for (auto &w : state_)
            w = splitMix64(sm);
    }

    /** Derive an independent stream named @p tag from this one. */
    Rng
    fork(std::string_view tag) const
    {
        std::uint64_t mix = state_[0] ^ (state_[1] << 1) ^ hashString(tag);
        return Rng(mix);
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound); @p bound must be non-zero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        ipref_assert(bound != 0);
        // Lemire-style rejection-free-ish mapping; bias is negligible
        // for the bounds used here, but we use 128-bit multiply to be
        // exact in distribution shape across platforms.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        ipref_assert(hi >= lo);
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability @p p of returning true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /**
     * Integer form of chance(@p p): `(next() >> 11) < t` holds exactly
     * when `uniform() < p` would. uniform() is m * 2^-53 for the
     * integer m = next() >> 11, and p * 2^53 scales by a power of two
     * without rounding, so m * 2^-53 < p iff m < ceil(p * 2^53).
     * NaN and p <= 0 give 0 (never); p >= 1 gives 2^53 (always).
     */
    static constexpr std::uint64_t
    chanceThreshold(double p)
    {
        if (!(p > 0.0))
            return 0;
        if (p >= 1.0)
            return std::uint64_t{1} << 53;
        const double t = p * 0x1.0p53;
        const auto whole = static_cast<std::uint64_t>(t);
        return whole + (static_cast<double>(whole) < t ? 1 : 0);
    }

    /** Bernoulli trial against a chanceThreshold() value. */
    bool
    chanceBelow(std::uint64_t threshold)
    {
        return (next() >> 11) < threshold;
    }

    /** Geometric draw: number of failures before first success. */
    std::uint64_t
    geometric(double p)
    {
        ipref_assert(p > 0.0 && p <= 1.0);
        if (p >= 1.0)
            return 0;
        std::uint64_t n = 0;
        while (!chance(p) && n < 1u << 20)
            ++n;
        return n;
    }

  private:
    static constexpr std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_;
};

/**
 * Precomputed Zipf(alpha) sampler over {0, ..., n-1}.
 *
 * Uses an inverse-CDF table; construction is O(n). Sampling returns
 * exactly std::lower_bound's index of the draw in the CDF: a guide
 * table brackets the answer to the entries of the draw's
 * 1/kGuideBuckets slice of [0, 1), and the search probes that bracket
 * first where the draw sits inside the slice. In the flat tail
 * (brackets of up to 16k entries) that lands a cache line or two from
 * the answer. The tables are immutable, shared per (n, alpha) and kept
 * for the life of the process: samplers of equal shape (every core's
 * walker of one preset, and every later System built from it) build
 * the CDF once. Rank 0 is the most popular item.
 */
class ZipfSampler
{
  public:
    static constexpr std::size_t kGuideBuckets = 4096;

    /** Build (or share) a sampler over @p n items with exponent
     *  @p alpha. */
    ZipfSampler(std::size_t n, double alpha);

    /** Draw a rank in [0, n). */
    std::size_t sample(Rng &rng) const { return rankOf(rng.uniform()); }

    /** Rank for the uniform draw @p u in [0, 1): the first CDF entry
     *  >= u. */
    std::size_t rankOf(double u) const;

    /** Number of items. */
    std::size_t size() const { return table_->cdf.size(); }

    /** The cumulative distribution (shared, immutable). */
    const std::vector<double> &cdf() const { return table_->cdf; }

  private:
    struct Table
    {
        std::vector<double> cdf;
        /** guide[k]: first index whose CDF value is >= k/kGuideBuckets
         *  (kGuideBuckets + 1 entries). */
        std::vector<std::uint32_t> guide;
    };

    static std::unique_ptr<const Table> build(std::size_t n,
                                              double alpha);

    const Table *table_; //!< owned by the process-wide table cache
};

} // namespace ipref

#endif // IPREF_UTIL_RNG_HH
