/**
 * @file
 * ISB/SISB-style temporal instruction prefetcher: map the physical
 * miss stream onto a linear *structural* address space so temporally
 * correlated lines become structurally sequential, then prefetch by
 * walking the structural space. The full physical→structural (PS)
 * and structural→physical (SP) maps live off-chip (conceptually in
 * reserved DRAM, as ISB proposes); small on-chip direct-mapped
 * metadata caches front them, and every cache miss counts one
 * modeled off-chip metadata read — the traffic column of the fig12
 * comparison. Mapping updates write through (chunked).
 */

#ifndef IPREF_PREFETCH_ISB_HH
#define IPREF_PREFETCH_ISB_HH

#include <vector>

#include "prefetch/temporal.hh"
#include "util/flat_map.hh"

namespace ipref
{

class SchemeRegistry;
class KnobValues;

/** Typed knob struct of the "isb" scheme. */
struct IsbConfig
{
    unsigned cacheEntries = 2048; //!< knob "cache" (each direction)
    unsigned degree = 4;          //!< structural lookahead (= degree)
    unsigned streamChunk = 256;   //!< knob "chunk": structural stream
                                  //!< allocation granularity
    unsigned groupLines = 4;      //!< knob "group": lines per
                                  //!< structural group (the mapped
                                  //!< spatial unit)

    static IsbConfig fromKnobs(const PrefetchConfig &cfg,
                               const KnobValues &knobs);
};

/** Structural-address-mapping record/replay prefetcher. */
class IsbPrefetcher : public TemporalPrefetcherBase
{
  public:
    IsbPrefetcher(const IsbConfig &cfg, unsigned lineBytes);

    void onDemandFetch(const DemandFetchEvent &event,
                       std::vector<PrefetchCandidate> &out) override;

    const char *name() const override { return "isb"; }

    MetadataCost metadataCost() const override;

  private:
    static constexpr std::uint64_t kNoStructural = ~0ull;

    /** PS lookup through the on-chip cache (counts off-chip reads). */
    std::uint64_t psLookup(Addr phys);
    /** SP lookup through the on-chip cache (counts off-chip reads). */
    Addr spLookup(std::uint64_t structural);

    /** Install phys ↔ structural (write-through, counts a write). */
    void map(Addr phys, std::uint64_t structural);

    /** Aligned base line of the spatial group containing `line`. */
    Addr groupBase(Addr line) const;

    /** Emit every line of the group at `base` except `skip`. */
    void emitGroup(Addr base, Addr skip, std::uint32_t tableIndex,
                   std::vector<PrefetchCandidate> &out) const;

    IsbConfig cfg_;
    FlatAddrMap<std::uint64_t> ps_; //!< off-chip PS map
    FlatAddrMap<Addr> sp_;          //!< off-chip SP map
    std::uint64_t nextStream_ = 0; //!< next unallocated stream base

    /** Direct-mapped on-chip metadata caches (tag = the key). */
    std::vector<Addr> psCache_;
    std::vector<std::uint64_t> spCache_;

    Addr prevGroup_ = invalidAddr;
    /** Active structural stream cursor (stream-buffer continuation
     *  across PS-map holes); kNoStructural when no stream is live. */
    std::uint64_t cursor_ = kNoStructural;
};

/** Register the "isb" scheme descriptor. */
void registerIsbScheme(SchemeRegistry &reg);

} // namespace ipref

#endif // IPREF_PREFETCH_ISB_HH
