#include "cache/hierarchy.hh"

#include <algorithm>

#include "util/error.hh"
#include "util/logging.hh"
#include "util/trace_event.hh"

namespace ipref
{

CacheHierarchy::CacheHierarchy(const HierarchyParams &params)
    : params_(params),
      l2_(params.l2),
      memory_(params.memory)
{
    if (params_.numCores == 0)
        ipref_raise(ConfigError, "hierarchy needs at least one core");
    if (params_.l1i.lineBytes != params_.l2.lineBytes ||
        params_.l1d.lineBytes != params_.l2.lineBytes)
        ipref_raise(ConfigError, "hierarchy requires a uniform line size "
                    "(standalone caches support mixed sizes)");
    for (unsigned c = 0; c < params_.numCores; ++c) {
        CacheParams pi = params_.l1i;
        CacheParams pd = params_.l1d;
        pi.name.append(".").append(std::to_string(c));
        pd.name.append(".").append(std::to_string(c));
        l1i_.push_back(std::make_unique<SetAssocCache>(pi));
        l1d_.push_back(std::make_unique<SetAssocCache>(pd));
    }
    listeners_.assign(params_.numCores, nullptr);
}

void
CacheHierarchy::setEvictionListener(CoreId core,
                                    PrefetchEvictionListener *l)
{
    ipref_assert(core < listeners_.size());
    listeners_[core] = l;
}

bool
CacheHierarchy::probeL1I(CoreId core, Addr addr) const
{
    return l1i_[core]->probe(addr);
}

CacheHierarchy::Fill &
CacheHierarchy::startFill(Addr lineAddr, Cycle ready, bool isPrefetch,
                          bool isInstr, bool installL2, bool dirty,
                          CoreId core)
{
    FillSlot slot;
    if (!freeFills_.empty()) {
        slot = freeFills_.back();
        freeFills_.pop_back();
    } else {
        slot = static_cast<FillSlot>(fills_.size());
        fills_.emplace_back();
    }
    Fill &fill = fills_[slot];
    fill.lineAddr = lineAddr;
    fill.ready = ready;
    fill.isPrefetch = isPrefetch;
    fill.demandMerged = false;
    fill.isInstr = isInstr;
    fill.installL2 = installL2;
    fill.dirty = dirty;
    fill.fromMemory = false;
    fill.srcCore = core;
    fill.targets.clear();
    fill.targets.push_back(core);
    inflight_[lineAddr] = slot;
    fillQueue_.push({ready, slot});
    nextFillAt_ = std::min(nextFillAt_, ready);
    return fill;
}

void
CacheHierarchy::insertL2(Addr lineAddr, const InsertFlags &flags,
                         Cycle now)
{
    Eviction ev = l2_.insert(lineAddr, flags);
    if (ev.valid && ev.dirty) {
        ++l2WritebacksToMem;
        memory_.write(now);
    }
}

void
CacheHierarchy::install(Fill &fill)
{
    // A fill that a demand access merged with installs as a demand
    // line (used); a pure prefetch installs with the prefetched bit.
    bool as_prefetch = fill.isPrefetch && !fill.demandMerged;

    // A bypassing prefetch that a demand access merged with has
    // proven itself useful while still in flight: install it into
    // the L2 like any demand fill (the selective-install policy only
    // excludes *unproven* prefetches).
    if (fill.isPrefetch && fill.demandMerged && !fill.installL2)
        fill.installL2 = true;

    if (fill.installL2) {
        InsertFlags f;
        f.prefetched = as_prefetch;
        f.isInstr = fill.isInstr;
        f.dirty = fill.dirty;
        f.srcCore = fill.srcCore;
        insertL2(fill.lineAddr, f, fill.ready);
    }

    for (CoreId core : fill.targets) {
        SetAssocCache &l1 =
            fill.isInstr ? *l1i_[core] : *l1d_[core];
        InsertFlags f;
        f.prefetched = as_prefetch && fill.isInstr;
        f.isInstr = fill.isInstr;
        f.dirty = fill.dirty && !fill.isInstr;
        f.srcCore = core;
        IPREF_TRACE(f.prefetched ? TraceEventType::PrefetchFill
                                 : TraceEventType::CacheFill,
                    static_cast<std::uint16_t>(core), fill.lineAddr,
                    0,
                    fill.isInstr ? traceLevelL1I : traceLevelL1D,
                    fill.ready);
        Eviction ev = l1.insert(fill.lineAddr, f);
        if (!ev.valid)
            continue;
        IPREF_TRACE(TraceEventType::CacheEvict,
                    static_cast<std::uint16_t>(core), ev.lineAddr,
                    static_cast<std::uint64_t>(ev.used) |
                        (static_cast<std::uint64_t>(ev.prefetched)
                         << 1),
                    fill.isInstr ? traceLevelL1I : traceLevelL1D,
                    fill.ready);
        if (fill.isInstr) {
            if (listeners_[core])
                listeners_[core]->instrLineEvicted(core,
                                                   ev.lineAddr);
            if (ev.prefetched) {
                if (listeners_[core])
                    listeners_[core]->prefetchedLineEvicted(
                        core, ev.lineAddr, ev.used);
                // Selective L2 install: a prefetched line earns its
                // place in the L2 only by being used.
                if (params_.prefetchBypassL2) {
                    if (ev.used) {
                        ++bypassInstalls;
                        InsertFlags lf;
                        lf.isInstr = true;
                        lf.srcCore = core;
                        insertL2(ev.lineAddr, lf, fill.ready);
                    } else {
                        ++bypassDrops;
                    }
                }
            }
        } else if (ev.dirty) {
            // L1D writeback into the L2.
            InsertFlags lf;
            lf.isInstr = false;
            lf.dirty = true;
            lf.srcCore = core;
            insertL2(ev.lineAddr, lf, fill.ready);
        }
    }
}

void
CacheHierarchy::completeNextFill()
{
    FillSlot slot = fillQueue_.top().slot;
    fillQueue_.pop();
    Fill &fill = fills_[slot];
    const FillSlot *indexed = inflight_.find(fill.lineAddr);
    if (indexed && *indexed == slot)
        inflight_.erase(fill.lineAddr);
    install(fill);
    freeFills_.push_back(slot);
}

void
CacheHierarchy::drain(Cycle now)
{
    ipref_assert(now + 1 > lastNow_); // monotonic time
    lastNow_ = now;
    IPREF_TRACE_SETNOW(now);
    if (now < nextFillAt_)
        return;
    while (!fillQueue_.empty() && fillQueue_.top().ready <= now)
        completeNextFill();
    nextFillAt_ =
        fillQueue_.empty() ? neverCycle : fillQueue_.top().ready;
}

void
CacheHierarchy::drainAll()
{
    while (!fillQueue_.empty())
        completeNextFill();
    nextFillAt_ = neverCycle;
}

FetchResult
CacheHierarchy::fetchAccess(CoreId core, Addr pc,
                            FetchTransition transition, Cycle now)
{
    drain(now);
    FetchResult res;
    Addr line = lineOf(pc);
    ++fetchLineAccesses;

    AccessOutcome out = l1i_[core]->access(line);
    if (out.hit) {
        res.l1Hit = true;
        res.firstUseOfPrefetch = out.firstUseOfPrefetch;
        if (out.firstUseOfPrefetch)
            ++l1iFirstUseHits;
        res.ready = now + params_.l1Latency;
        IPREF_TRACE(TraceEventType::CacheHit,
                    static_cast<std::uint16_t>(core), line,
                    out.firstUseOfPrefetch,
                    traceDetailPack(traceLevelL1I,
                                    static_cast<std::uint8_t>(transition)), now,
                    pc);
        return res;
    }
    IPREF_TRACE(TraceEventType::CacheMiss,
                static_cast<std::uint16_t>(core), line, 0,
                traceDetailPack(traceLevelL1I,
                                    static_cast<std::uint8_t>(transition)), now, pc);

    // Merge with an in-flight fill?
    if (Fill *fill = inflightFill(line)) {
        if (std::find(fill->targets.begin(), fill->targets.end(),
                      core) == fill->targets.end()) {
            fill->targets.push_back(core);
        }
        if (fill->isPrefetch && !fill->demandMerged) {
            fill->demandMerged = true;
            res.latePrefetchHit = true;
            ++l1iLateHits;
        } else if (fill->isPrefetch) {
            // an already-merged prefetch still covers this access
            res.latePrefetchHit = true;
        } else {
            // merged with another core's demand fill: a miss whose
            // latency is shortened
            res.l1Miss = true;
            ++l1iMisses;
            ++l1iMissByTransition[static_cast<std::size_t>(transition)];
        }
        res.fromMemory = fill->fromMemory;
        res.ready = std::max(fill->ready, now + params_.l1Latency);
        return res;
    }

    // True L1I demand miss.
    MissGroup group = missGroup(transition);
    if (params_.idealEliminate[static_cast<std::size_t>(group)]) {
        res.eliminated = true;
        ++l1iEliminated;
        res.ready = now + params_.l1Latency;
        return res;
    }

    res.l1Miss = true;
    ++l1iMisses;
    ++l1iMissByTransition[static_cast<std::size_t>(transition)];

    AccessOutcome l2out = l2_.access(line);
    if (l2out.hit) {
        Cycle ready = now + params_.l2Latency;
        startFill(line, ready, false, true, false, false, core);
        res.ready = ready;
        IPREF_TRACE(TraceEventType::CacheHit,
                    static_cast<std::uint16_t>(core), line, 0,
                    traceDetailPack(traceLevelL2,
                                    static_cast<std::uint8_t>(transition)), now,
                    pc);
        return res;
    }

    res.l2Miss = true;
    ++l2iMisses;
    ++l2iMissByTransition[static_cast<std::size_t>(transition)];
    IPREF_TRACE(TraceEventType::CacheMiss,
                static_cast<std::uint16_t>(core), line, 0,
                traceDetailPack(traceLevelL2,
                                    static_cast<std::uint8_t>(transition)), now, pc);
    Cycle ready = memory_.read(now, false);
    startFill(line, ready, false, true, true, false, core).fromMemory =
        true;
    res.fromMemory = true;
    res.ready = ready;
    return res;
}

DataResult
CacheHierarchy::dataAccess(CoreId core, Addr addr, bool isWrite,
                           Cycle now)
{
    drain(now);
    DataResult res;
    Addr line = lineOf(addr);
    ++l1dAccesses;

    AccessOutcome out = l1d_[core]->access(line, isWrite);
    if (out.hit) {
        res.l1Hit = true;
        res.ready = now + params_.l1Latency;
        IPREF_TRACE(TraceEventType::CacheHit,
                    static_cast<std::uint16_t>(core), line, 0,
                    traceLevelL1D, now);
        return res;
    }

    ++l1dMisses;
    IPREF_TRACE(TraceEventType::CacheMiss,
                static_cast<std::uint16_t>(core), line, 0,
                traceLevelL1D, now);

    if (Fill *fill = inflightFill(line)) {
        if (std::find(fill->targets.begin(), fill->targets.end(),
                      core) == fill->targets.end())
            fill->targets.push_back(core);
        fill->demandMerged = true;
        if (isWrite)
            fill->dirty = true;
        res.ready = std::max(fill->ready, now + params_.l1Latency);
        return res;
    }

    AccessOutcome l2out = l2_.access(line, false);
    if (l2out.hit) {
        Cycle ready = now + params_.l2Latency;
        startFill(line, ready, false, false, false, isWrite, core);
        res.ready = ready;
        return res;
    }

    res.l2Miss = true;
    ++l2dMisses;
    Cycle ready = memory_.read(now, false);
    startFill(line, ready, false, false, true, isWrite, core)
        .fromMemory = true;
    res.ready = ready;
    return res;
}

PrefetchResult
CacheHierarchy::prefetchRequest(CoreId core, Addr addr, Cycle now)
{
    drain(now);
    PrefetchResult res;
    Addr line = lineOf(addr);

    if (l1i_[core]->probe(line)) {
        res.outcome = PrefetchOutcome::DroppedPresent;
        return res;
    }

    if (Fill *fill = inflightFill(line)) {
        if (std::find(fill->targets.begin(), fill->targets.end(),
                      core) != fill->targets.end()) {
            res.outcome = PrefetchOutcome::DroppedInFlight;
            return res;
        }
        fill->targets.push_back(core);
        res.outcome = PrefetchOutcome::Merged;
        res.ready = fill->ready;
        return res;
    }

    AccessOutcome l2out = l2_.access(line);
    if (l2out.hit) {
        Cycle ready = now + params_.l2Latency;
        startFill(line, ready, true, true, false, false, core);
        res.outcome = PrefetchOutcome::Issued;
        res.ready = ready;
        return res;
    }

    Cycle ready = memory_.read(now, true);
    // Selective install: in bypass mode instruction prefetches do not
    // enter the L2 until proven useful.
    bool install_l2 = !params_.prefetchBypassL2;
    startFill(line, ready, true, true, install_l2, false, core)
        .fromMemory = true;
    res.outcome = PrefetchOutcome::Issued;
    res.ready = ready;
    res.fromMemory = true;
    return res;
}

void
CacheHierarchy::registerStats(StatGroup &group)
{
    group.addCounter("fetch_line_accesses", &fetchLineAccesses);
    group.addCounter("l1i_misses", &l1iMisses);
    group.addCounter("l1i_eliminated", &l1iEliminated,
                     "misses removed by the ideal filter");
    group.addCounter("l1i_first_use_hits", &l1iFirstUseHits,
                     "first use of a prefetched line");
    group.addCounter("l1i_late_hits", &l1iLateHits,
                     "demand merged with in-flight prefetch");
    group.addCounter("l2i_misses", &l2iMisses);
    group.addCounter("l1d_accesses", &l1dAccesses);
    group.addCounter("l1d_misses", &l1dMisses);
    group.addCounter("l2d_misses", &l2dMisses);
    group.addCounter("l2_writebacks_mem", &l2WritebacksToMem);
    group.addCounter("bypass_installs", &bypassInstalls,
                     "useful prefetches installed into L2 on evict");
    group.addCounter("bypass_drops", &bypassDrops,
                     "useless prefetches dropped on evict");
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(FetchTransition::NumTransitions);
         ++i) {
        group.addCounter(
            std::string("l1i_miss.") +
                transitionName(static_cast<FetchTransition>(i)),
            &l1iMissByTransition[i]);
        group.addCounter(
            std::string("l2i_miss.") +
                transitionName(static_cast<FetchTransition>(i)),
            &l2iMissByTransition[i]);
    }
}

} // namespace ipref
