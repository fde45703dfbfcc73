#include "prefetch/isb.hh"

#include "prefetch/scheme_registry.hh"
#include "util/rng.hh"

namespace ipref
{

IsbConfig
IsbConfig::fromKnobs(const PrefetchConfig &cfg,
                     const KnobValues &knobs)
{
    IsbConfig c;
    c.cacheEntries =
        static_cast<unsigned>(knobs.getUint("cache", c.cacheEntries));
    c.degree = cfg.degree;
    c.streamChunk =
        static_cast<unsigned>(knobs.getUint("chunk", c.streamChunk));
    c.groupLines =
        static_cast<unsigned>(knobs.getUint("group", c.groupLines));
    return c;
}

IsbPrefetcher::IsbPrefetcher(const IsbConfig &cfg, unsigned lineBytes)
    : TemporalPrefetcherBase(lineBytes),
      cfg_(cfg),
      psCache_(cfg.cacheEntries, invalidAddr),
      spCache_(cfg.cacheEntries, kNoStructural)
{
}

std::uint64_t
IsbPrefetcher::psLookup(Addr phys)
{
    const std::uint64_t *structural = ps_.find(phys);
    if (!structural)
        return kNoStructural;
    std::size_t slot = static_cast<std::size_t>(
        splitMix64(phys) % psCache_.size());
    if (psCache_[slot] != phys) {
        // Resident off-chip metadata not fronted by the on-chip
        // cache: one modeled DRAM metadata read, then install.
        ++metaOffChipReads_;
        psCache_[slot] = phys;
    }
    return *structural;
}

Addr
IsbPrefetcher::spLookup(std::uint64_t structural)
{
    const Addr *phys = sp_.find(structural);
    if (!phys)
        return invalidAddr;
    std::size_t slot = static_cast<std::size_t>(
        splitMix64(structural) % spCache_.size());
    if (spCache_[slot] != structural) {
        ++metaOffChipReads_;
        spCache_[slot] = structural;
    }
    return *phys;
}

void
IsbPrefetcher::map(Addr phys, std::uint64_t structural)
{
    ps_[phys] = structural;
    sp_[structural] = phys;
    psCache_[static_cast<std::size_t>(splitMix64(phys) %
                                      psCache_.size())] = phys;
    spCache_[static_cast<std::size_t>(splitMix64(structural) %
                                      spCache_.size())] = structural;
    // Write-through of the PS+SP pair, combined into one chunk write.
    ++metaOffChipWrites_;
    ++records_;
}

Addr
IsbPrefetcher::groupBase(Addr line) const
{
    return line - static_cast<Addr>((line / lineBytes_) %
                                    cfg_.groupLines) *
                      lineBytes_;
}

void
IsbPrefetcher::emitGroup(Addr base, Addr skip,
                         std::uint32_t tableIndex,
                         std::vector<PrefetchCandidate> &out) const
{
    for (unsigned i = 0; i < cfg_.groupLines; ++i) {
        Addr line = base + static_cast<Addr>(i) * lineBytes_;
        if (line == skip)
            continue;
        PrefetchCandidate cand;
        cand.lineAddr = line;
        cand.origin = PrefetchOrigin::Temporal;
        cand.tableIndex = tableIndex;
        out.push_back(cand);
    }
}

void
IsbPrefetcher::onDemandFetch(const DemandFetchEvent &event,
                             std::vector<PrefetchCandidate> &out)
{
    if (!event.taggedTrigger())
        return;
    checkTriggerOrder(event);
    Addr cur = event.lineAddr;
    Addr curG = groupBase(cur);

    // Spatial residue: the rest of the trigger's own group is the
    // zeroth structural step — instruction working sets are dense at
    // group granularity (the reason the mapping uses groups at all).
    emitGroup(curG, cur, 0, out);

    // Replay: walk the structural space ahead of this trigger's
    // group, emitting whole groups. A PS hit (re)anchors the active
    // stream cursor; a PS miss while a stream is live advances the
    // cursor one position anyway, stream-buffer style, so a hole in
    // the mapping (an evicted or remapped group) doesn't strand the
    // rest of the recorded stream.
    std::uint64_t s = psLookup(curG);
    if (s == kNoStructural && cursor_ != kNoStructural &&
        (cursor_ + 1) % cfg_.streamChunk != 0)
        s = ++cursor_;
    if (s != kNoStructural) {
        cursor_ = s;
        bool any = false;
        for (unsigned k = 1; k <= cfg_.degree; ++k) {
            if ((s + k) % cfg_.streamChunk == 0)
                break; // stream boundary
            Addr base = spLookup(s + k);
            if (base == invalidAddr || base == curG)
                continue;
            emitGroup(base, cur, static_cast<std::uint32_t>(s + k),
                      out);
            any = true;
        }
        if (any)
            ++replays_;
    }

    // Train: append the group to its predecessor's structural
    // stream (group self-transitions carry no information).
    if (prevGroup_ != invalidAddr && prevGroup_ != curG) {
        std::uint64_t sPrev = psLookup(prevGroup_);
        if (sPrev == kNoStructural) {
            sPrev = nextStream_;
            nextStream_ += cfg_.streamChunk;
            map(prevGroup_, sPrev);
        }
        std::uint64_t sNext = sPrev + 1;
        bool boundary = sNext % cfg_.streamChunk == 0;
        std::uint64_t sCur = psLookup(curG);
        if (sCur != sNext) {
            // (Re)map the group as prev's structural successor. The
            // slot's previous occupant — a stale successor from an
            // earlier traversal — is evicted, so the structural space
            // tracks the latest observed order, like Domino's history
            // overwrite. A fresh stream chunk opens at boundaries.
            if (boundary) {
                std::uint64_t sNew = nextStream_;
                nextStream_ += cfg_.streamChunk;
                sNext = sNew;
            } else {
                Addr occupant = spLookup(sNext);
                if (occupant != invalidAddr && occupant != curG)
                    ps_.erase(occupant);
            }
            if (sCur != kNoStructural) {
                const Addr *old = sp_.find(sCur);
                if (old && *old == curG)
                    sp_.erase(sCur);
            }
            map(curG, sNext);
        }
    }
    prevGroup_ = curG;
}

MetadataCost
IsbPrefetcher::metadataCost() const
{
    MetadataCost m;
    m.entries = ps_.size() + sp_.size();
    // On-chip: two direct-mapped metadata caches, ~8 B per entry
    // (tag + mapping). Off-chip footprint: 8 B per live mapping.
    m.bytes = 2ull * cfg_.cacheEntries * 8 + m.entries * 8;
    m.offChipReads = metaOffChipReads_.value();
    m.offChipWrites = metaOffChipWrites_.value();
    return m;
}

void
registerIsbScheme(SchemeRegistry &reg)
{
    reg.add({"isb",
             "isb structural mapping",
             {"sisb"},
             withCommonKnobs(
                 {{"cache", KnobType::Uint, "2048",
                   "on-chip metadata cache entries per direction", 16,
                   1u << 22},
                  {"chunk", KnobType::Uint, "256",
                   "structural stream allocation granularity", 4,
                   1u << 16},
                  {"group", KnobType::Uint, "4",
                   "lines per structural group (the mapped spatial "
                   "unit)",
                   1, 32}}),
             [](const PrefetchConfig &cfg, const KnobValues &knobs) {
                 return std::unique_ptr<InstructionPrefetcher>(
                     std::make_unique<IsbPrefetcher>(
                         IsbConfig::fromKnobs(cfg, knobs),
                         cfg.lineBytes));
             }});
}

} // namespace ipref
