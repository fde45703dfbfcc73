/**
 * @file
 * Parameterizable set-associative cache model with the per-line
 * metadata the paper's schemes need: a prefetched bit, a used bit
 * (prefetch tagging / selective-L2-install), an instruction/data bit
 * and the id of the core that inserted the line (CMP accounting).
 *
 * Storage is structure-of-arrays for probe speed: the 64-bit tags of
 * a set are contiguous, so a set probe is a linear scan over one or
 * two host cache lines, with the flag bytes, LRU clocks and source
 * cores in parallel arrays that are only touched on a hit or fill.
 */

#ifndef IPREF_CACHE_CACHE_HH
#define IPREF_CACHE_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/stats.hh"
#include "util/types.hh"

namespace ipref
{

/** Replacement policy selection. */
enum class ReplPolicy : std::uint8_t
{
    LRU,
    Random,
};

/** Static cache geometry. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32u << 10;
    unsigned assoc = 4;
    unsigned lineBytes = 64;
    ReplPolicy repl = ReplPolicy::LRU;

    /** Number of sets implied by the geometry. */
    std::uint64_t
    numSets() const
    {
        return sizeBytes / (static_cast<std::uint64_t>(assoc) *
                            lineBytes);
    }
};

/** Flags attached to a line when it is inserted. */
struct InsertFlags
{
    bool prefetched = false;
    bool isInstr = false;
    bool dirty = false;
    CoreId srcCore = 0;
};

/** Description of a line pushed out by an insert. */
struct Eviction
{
    bool valid = false;   //!< false: no victim (empty way used)
    Addr lineAddr = 0;    //!< byte address of the victim line
    bool dirty = false;
    bool prefetched = false;
    bool used = false;
    bool isInstr = false;
    CoreId srcCore = 0;
};

/** Result of a demand access. */
struct AccessOutcome
{
    bool hit = false;
    /** Hit on a prefetched line that had never been used before —
     *  the "tagged" trigger and the proof-of-usefulness event. */
    bool firstUseOfPrefetch = false;
};

/**
 * A single-level set-associative cache. Purely functional: latency
 * and in-flight state live in the hierarchy, not here.
 */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheParams &params);

    const CacheParams &params() const { return params_; }

    /** Byte address of the line containing @p addr. */
    Addr lineOf(Addr addr) const { return addr & ~lineMask_; }

    /** Tag-only lookup: no LRU update, no metadata change. */
    bool probe(Addr addr) const { return findWay(addr) != npos; }

    /**
     * Demand access. On a hit, updates recency, sets the used bit and
     * (for writes) the dirty bit.
     */
    AccessOutcome access(Addr addr, bool isWrite = false);

    /**
     * Install the line containing @p addr, evicting a victim if the
     * set is full. Re-inserting a resident line just updates flags.
     */
    Eviction insert(Addr addr, const InsertFlags &flags);

    /** Drop the line if present. @return true if it was resident. */
    bool invalidate(Addr addr);

    /** Read-only view of a resident line's metadata (tests/policies). */
    struct MetaView
    {
        bool valid = false;
        bool dirty = false;
        bool prefetched = false;
        bool used = false;
        bool isInstr = false;
        CoreId srcCore = 0;
    };
    MetaView lookup(Addr addr) const;

    /** Number of valid lines (tests). */
    std::uint64_t validLines() const;

    // Demand-access statistics.
    Counter hits;
    Counter misses;
    Counter insertions;
    Counter evictions;

  private:
    /** Packed per-line flag bits (meta_ entries). */
    enum MetaBits : std::uint8_t
    {
        kValid = 1,
        kDirty = 2,
        kPrefetched = 4,
        kUsed = 8,
        kIsInstr = 16,
    };

    static constexpr std::size_t npos = ~std::size_t{0};

    /** Tag stored in empty ways; can never match a real lookup (the
     *  top line of the address space is the invalidAddr sentinel and
     *  is never cached). */
    static constexpr Addr kEmptyTag = ~Addr{0};

    std::uint64_t setIndex(Addr addr) const;

    /** Global way index of @p addr's line, or npos. The scan touches
     *  only the packed tag array of one set. */
    std::size_t
    findWay(Addr addr) const
    {
        const Addr tag = addr >> lineShift_;
        const std::size_t base = setIndex(addr) * assoc_;
        for (std::size_t w = 0; w < assoc_; ++w) {
            if (tags_[base + w] == tag)
                return base + w;
        }
        return npos;
    }

    unsigned victimWay(std::uint64_t set);

    CacheParams params_;
    Addr lineMask_;
    unsigned lineShift_;
    std::size_t assoc_;
    std::uint64_t numSets_;

    // SoA line storage, set-major (numSets * assoc each).
    std::vector<Addr> tags_;           //!< kEmptyTag when the way is empty
    std::vector<std::uint64_t> touch_; //!< LRU recency clocks
    std::vector<std::uint8_t> meta_;   //!< MetaBits flags
    std::vector<CoreId> srcCore_;

    std::uint64_t touchClock_ = 0;
    std::uint64_t randState_;
};

} // namespace ipref

#endif // IPREF_CACHE_CACHE_HH
