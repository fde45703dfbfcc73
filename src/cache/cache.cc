#include "cache/cache.hh"

#include "util/bitutil.hh"
#include "util/error.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace ipref
{

SetAssocCache::SetAssocCache(const CacheParams &params)
    : params_(params),
      randState_(hashString(params.name) | 1)
{
    if (!isPowerOfTwo(params_.lineBytes))
        ipref_raise(ConfigError, "%s: line size %u not a power of two",
                    params_.name.c_str(), params_.lineBytes);
    if (params_.sizeBytes %
            (static_cast<std::uint64_t>(params_.assoc) *
             params_.lineBytes) != 0)
        ipref_raise(ConfigError, "%s: size %llu not divisible by assoc*line",
                    params_.name.c_str(),
                    static_cast<unsigned long long>(params_.sizeBytes));
    numSets_ = params_.numSets();
    if (!isPowerOfTwo(numSets_))
        ipref_raise(ConfigError, "%s: %llu sets (must be a power of two)",
                    params_.name.c_str(),
                    static_cast<unsigned long long>(numSets_));
    lineShift_ = floorLog2(params_.lineBytes);
    lineMask_ = params_.lineBytes - 1;
    assoc_ = params_.assoc;
    const std::size_t ways = numSets_ * assoc_;
    tags_.assign(ways, kEmptyTag);
    touch_.assign(ways, 0);
    meta_.assign(ways, 0);
    srcCore_.assign(ways, 0);
}

std::uint64_t
SetAssocCache::setIndex(Addr addr) const
{
    return (addr >> lineShift_) & (numSets_ - 1);
}

AccessOutcome
SetAssocCache::access(Addr addr, bool isWrite)
{
    AccessOutcome out;
    std::size_t w = findWay(addr);
    if (w == npos) {
        ++misses;
        return out;
    }
    ++hits;
    out.hit = true;
    std::uint8_t m = meta_[w];
    out.firstUseOfPrefetch = (m & kPrefetched) && !(m & kUsed);
    m |= kUsed;
    if (isWrite)
        m |= kDirty;
    meta_[w] = m;
    touch_[w] = ++touchClock_;
    return out;
}

unsigned
SetAssocCache::victimWay(std::uint64_t set)
{
    const std::size_t base = set * assoc_;
    // Prefer an empty way.
    for (unsigned w = 0; w < assoc_; ++w)
        if (tags_[base + w] == kEmptyTag)
            return w;
    if (params_.repl == ReplPolicy::Random)
        return static_cast<unsigned>(splitMix64(randState_) %
                                     params_.assoc);
    unsigned victim = 0;
    for (unsigned w = 1; w < assoc_; ++w)
        if (touch_[base + w] < touch_[base + victim])
            victim = w;
    return victim;
}

Eviction
SetAssocCache::insert(Addr addr, const InsertFlags &flags)
{
    Eviction ev;
    Addr tag = addr >> lineShift_;
    if (tag == kEmptyTag)
        ipref_raise(ConfigError,
                    "%s: cannot cache the top line of the address "
                    "space (reserved sentinel)",
                    params_.name.c_str());
    std::uint64_t set = setIndex(addr);

    if (std::size_t w = findWay(addr); w != npos) {
        // Already resident: merge flags (e.g., writeback marks dirty).
        std::uint8_t m = meta_[w];
        if (flags.dirty)
            m |= kDirty;
        if (flags.isInstr)
            m |= kIsInstr;
        else
            m &= static_cast<std::uint8_t>(~kIsInstr);
        meta_[w] = m;
        touch_[w] = ++touchClock_;
        return ev;
    }

    std::size_t w = set * assoc_ + victimWay(set);
    if (tags_[w] != kEmptyTag) {
        const std::uint8_t m = meta_[w];
        ev.valid = true;
        ev.lineAddr = tags_[w] << lineShift_;
        ev.dirty = m & kDirty;
        ev.prefetched = m & kPrefetched;
        ev.used = m & kUsed;
        ev.isInstr = m & kIsInstr;
        ev.srcCore = srcCore_[w];
        ++evictions;
    }
    tags_[w] = tag;
    std::uint8_t m = kValid;
    if (flags.dirty)
        m |= kDirty;
    if (flags.prefetched)
        m |= kPrefetched;
    else
        m |= kUsed; // demand fills are used by definition
    if (flags.isInstr)
        m |= kIsInstr;
    meta_[w] = m;
    srcCore_[w] = flags.srcCore;
    touch_[w] = ++touchClock_;
    ++insertions;
    return ev;
}

bool
SetAssocCache::invalidate(Addr addr)
{
    std::size_t w = findWay(addr);
    if (w == npos)
        return false;
    tags_[w] = kEmptyTag;
    meta_[w] = 0;
    return true;
}

SetAssocCache::MetaView
SetAssocCache::lookup(Addr addr) const
{
    MetaView v;
    std::size_t w = findWay(addr);
    if (w == npos)
        return v;
    const std::uint8_t m = meta_[w];
    v.valid = true;
    v.dirty = m & kDirty;
    v.prefetched = m & kPrefetched;
    v.used = m & kUsed;
    v.isInstr = m & kIsInstr;
    v.srcCore = srcCore_[w];
    return v;
}

std::uint64_t
SetAssocCache::validLines() const
{
    std::uint64_t n = 0;
    for (Addr t : tags_)
        if (t != kEmptyTag)
            ++n;
    return n;
}

} // namespace ipref
