/**
 * @file
 * Two-level TLB model: small set-associative L1 instruction and data
 * TLBs backed by a large shared second-level TLB, with fixed miss
 * penalties (paper Section 5: 128-entry 2-way primaries, 2K-entry
 * secondary).
 */

#ifndef IPREF_CPU_TLB_HH
#define IPREF_CPU_TLB_HH

#include <cstdint>
#include <vector>

#include "util/types.hh"

namespace ipref
{

/** TLB sizing and penalties. */
struct TlbParams
{
    unsigned pageBytes = 8u << 10;
    unsigned l1Entries = 128;
    unsigned l1Assoc = 2;
    unsigned l2Entries = 2048;
    unsigned l2Assoc = 4;
    Cycle l2HitPenalty = 10;   //!< L1 TLB miss, L2 TLB hit
    Cycle walkPenalty = 150;   //!< both miss: page table walk
};

/** A single set-associative TLB level. */
class TlbLevel
{
  public:
    TlbLevel(unsigned entries, unsigned assoc, unsigned pageBytes);

    /** Look up the page of @p addr; fills on miss. */
    bool access(Addr addr);

  private:
    struct Entry
    {
        std::uint64_t vpn = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    std::vector<Entry> entries_;
    unsigned assoc_;
    unsigned numSets_;
    unsigned pageShift_;
    std::uint64_t useClock_ = 0;
};

/** L1 TLB backed by a (shared per-core here) L2 TLB. */
class Tlb
{
  public:
    explicit Tlb(const TlbParams &params);

    /**
     * Translate @p addr.
     * @return the added penalty in cycles (0 on an L1 TLB hit).
     */
    Cycle translate(Addr addr);

  private:
    TlbParams params_;
    TlbLevel l1_;
    TlbLevel l2_;
};

} // namespace ipref

#endif // IPREF_CPU_TLB_HH
