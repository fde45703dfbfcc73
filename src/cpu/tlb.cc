#include "cpu/tlb.hh"

#include "util/bitutil.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace ipref
{

TlbLevel::TlbLevel(unsigned entries, unsigned assoc, unsigned pageBytes)
    : assoc_(assoc)
{
    ipref_assert(entries % assoc == 0);
    numSets_ = entries / assoc;
    if (!isPowerOfTwo(numSets_))
        ipref_raise(ConfigError, "TLB sets must be a power of two");
    if (!isPowerOfTwo(pageBytes))
        ipref_raise(ConfigError, "page size must be a power of two");
    pageShift_ = floorLog2(pageBytes);
    entries_.resize(entries);
}

bool
TlbLevel::access(Addr addr)
{
    std::uint64_t vpn = addr >> pageShift_;
    unsigned set = static_cast<unsigned>(vpn & (numSets_ - 1));
    Entry *base = &entries_[static_cast<std::size_t>(set) * assoc_];
    for (unsigned w = 0; w < assoc_; ++w) {
        if (base[w].valid && base[w].vpn == vpn) {
            base[w].lastUse = ++useClock_;
            return true;
        }
    }
    // Miss: fill the LRU way.
    Entry *victim = base;
    for (unsigned w = 1; w < assoc_; ++w) {
        if (!base[w].valid) {
            victim = &base[w];
            break;
        }
        if (base[w].lastUse < victim->lastUse)
            victim = &base[w];
    }
    victim->valid = true;
    victim->vpn = vpn;
    victim->lastUse = ++useClock_;
    return false;
}

Tlb::Tlb(const TlbParams &params)
    : params_(params),
      l1_(params.l1Entries, params.l1Assoc, params.pageBytes),
      l2_(params.l2Entries, params.l2Assoc, params.pageBytes)
{}

Cycle
Tlb::translate(Addr addr)
{
    if (l1_.access(addr))
        return 0;
    if (l2_.access(addr))
        return params_.l2HitPenalty;
    return params_.walkPenalty;
}

} // namespace ipref
