#include "util/rng.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <mutex>

namespace ipref
{

std::unique_ptr<const ZipfSampler::Table>
ZipfSampler::build(std::size_t n, double alpha)
{
    auto t = std::make_unique<Table>();
    t->cdf.resize(n);
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
        t->cdf[i] = sum;
    }
    for (auto &v : t->cdf)
        v /= sum;
    t->cdf.back() = 1.0;

    t->guide.resize(kGuideBuckets + 1);
    for (std::size_t k = 0; k <= kGuideBuckets; ++k) {
        double edge = static_cast<double>(k) /
                      static_cast<double>(kGuideBuckets);
        t->guide[k] = static_cast<std::uint32_t>(
            std::lower_bound(t->cdf.begin(), t->cdf.end(), edge) -
            t->cdf.begin());
    }
    return t;
}

ZipfSampler::ZipfSampler(std::size_t n, double alpha)
{
    ipref_assert(n > 0 && n < (std::size_t{1} << 32));
    // Tables by shape, built on first use and kept for the process:
    // every System of a campaign reuses them instead of rebuilding.
    // Leaked on purpose, so no sampler outlives its table during
    // static destruction.
    static std::mutex mu;
    static auto *tables =
        new std::map<std::pair<std::size_t, std::uint64_t>,
                     std::unique_ptr<const Table>>;
    const auto key =
        std::make_pair(n, std::bit_cast<std::uint64_t>(alpha));
    std::lock_guard<std::mutex> lock(mu);
    std::unique_ptr<const Table> &slot = (*tables)[key];
    if (!slot)
        slot = build(n, alpha);
    table_ = slot.get();
}

std::size_t
ZipfSampler::rankOf(double u) const
{
    // With k = floor(u * G), exact for a power-of-two G, every entry
    // before guide[k] is < k/G <= u and the entry at guide[k + 1] is
    // >= (k+1)/G > u: the answer is in [lo, hi] = [guide[k],
    // guide[k + 1]], and cdf[hi] >= u.
    const double scaled = u * static_cast<double>(kGuideBuckets);
    const auto k = static_cast<std::size_t>(scaled);
    ipref_assert(u >= 0.0 && k < kGuideBuckets);
    std::size_t lo = table_->guide[k];
    std::size_t hi = table_->guide[k + 1];
    if (lo == hi)
        return lo;
    // Probe where u sits inside its slice, then gallop from the probe
    // towards the answer, narrowing [lo, hi] (exact for any probe in
    // it), and binary-search what is left.
    const double *cdf = table_->cdf.data();
    const std::size_t probe =
        lo + static_cast<std::size_t>((scaled - static_cast<double>(k)) *
                                      static_cast<double>(hi - lo));
    std::size_t step = 1;
    if (cdf[probe] < u) {
        lo = probe + 1;
        while (step <= hi - lo && cdf[lo + step - 1] < u) {
            lo += step;
            step *= 2;
        }
        if (step <= hi - lo)
            hi = lo + step - 1;
    } else {
        hi = probe;
        while (step <= hi - lo && cdf[hi - step] >= u) {
            hi -= step;
            step *= 2;
        }
        if (step <= hi - lo)
            lo = hi - step + 1;
    }
    return static_cast<std::size_t>(
        std::lower_bound(cdf + lo, cdf + hi, u) - cdf);
}

} // namespace ipref
