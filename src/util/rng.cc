#include "util/rng.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <mutex>

namespace ipref
{

std::shared_ptr<const ZipfSampler::Table>
ZipfSampler::build(std::size_t n, double alpha)
{
    auto t = std::make_shared<Table>();
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
    // Live tables by shape; a table dies with its last sampler.
    static std::mutex mu;
    static std::map<std::pair<std::size_t, std::uint64_t>,
                    std::weak_ptr<const Table>>
        live;
    const auto key =
        std::make_pair(n, std::bit_cast<std::uint64_t>(alpha));
    std::lock_guard<std::mutex> lock(mu);
    std::weak_ptr<const Table> &slot = live[key];
    table_ = slot.lock();
    if (!table_) {
        table_ = build(n, alpha);
        slot = table_;
    }
}

std::size_t
ZipfSampler::rankOf(double u) const
{
    const std::vector<double> &cdf = table_->cdf;
    const std::size_t k = static_cast<std::size_t>(
        u * static_cast<double>(kGuideBuckets));
    if (k < kGuideBuckets) {
        // [lo, hi) holds the answer exactly when everything before lo
        // is < u and the entry at hi - 1 is >= u; lower_bound over
        // that range then returns the full search's index.
        const std::size_t lo = table_->guide[k];
        const std::size_t hi =
            std::min<std::size_t>(table_->guide[k + 1] + 1, cdf.size());
        if ((lo == 0 || cdf[lo - 1] < u) && cdf[hi - 1] >= u)
            return static_cast<std::size_t>(
                std::lower_bound(cdf.begin() + lo, cdf.begin() + hi,
                                 u) -
                cdf.begin());
    }
    auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    if (it == cdf.end())
        --it;
    return static_cast<std::size_t>(it - cdf.begin());
}

} // namespace ipref
