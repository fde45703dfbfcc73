/**
 * @file
 * MANA-style temporal instruction prefetcher (PAPERS.md: MANA, arXiv
 * 2102.01764): record the trigger stream as *spatially-encoded*
 * region records — a base line plus a bitmap of the neighboring
 * lines touched while the region was open — chained in recording
 * order. Replay looks the trigger up, emits its region footprint and
 * walks the chain a few records ahead. The spatial encoding is what
 * keeps the whole structure small enough to stay on-chip: unlike
 * domino/isb there is no modeled off-chip metadata traffic, which is
 * exactly the trade the fig12 metadata columns surface.
 */

#ifndef IPREF_PREFETCH_MANA_HH
#define IPREF_PREFETCH_MANA_HH

#include <vector>

#include "prefetch/temporal.hh"

namespace ipref
{

class SchemeRegistry;
class KnobValues;

/** Typed knob struct of the "mana" scheme. */
struct ManaConfig
{
    unsigned tableEntries = 16384; //!< knob "table": region records
    unsigned regionLines = 16;     //!< knob "region": lines per record
    unsigned chain = 8;            //!< knob "chain": records walked
                                  //!< ahead per replay

    static ManaConfig fromKnobs(const KnobValues &knobs);
};

/** Spatially-encoded region record/replay prefetcher. */
class ManaPrefetcher : public TemporalPrefetcherBase
{
  public:
    ManaPrefetcher(const ManaConfig &cfg, unsigned lineBytes);

    void onDemandFetch(const DemandFetchEvent &event,
                       std::vector<PrefetchCandidate> &out) override;

    const char *name() const override { return "mana"; }

    MetadataCost metadataCost() const override;

  private:
    struct Record
    {
        Addr base = invalidAddr;   //!< anchor line of the region
        std::uint32_t bitmap = 0;  //!< bit i = base + i*lineBytes
        std::int32_t next = -1;    //!< successor record in the chain
    };

    /** Emit record @p idx's footprint (minus @p skip). */
    void emitRecord(std::int32_t idx, Addr skip,
                    std::vector<PrefetchCandidate> &out) const;

    std::size_t indexSlot(Addr base) const;

    ManaConfig cfg_;
    std::vector<Record> records_tbl_;
    std::vector<std::int32_t> index_; //!< base line → record
    std::uint32_t alloc_ = 0;         //!< circular allocation cursor
    std::uint64_t live_ = 0;          //!< valid region records
    std::int32_t openRec_ = -1;       //!< record being appended to
    Addr prevTrigger_ = invalidAddr;
};

/** Register the "mana" scheme descriptor. */
void registerManaScheme(SchemeRegistry &reg);

} // namespace ipref

#endif // IPREF_PREFETCH_MANA_HH
