#include "cpu/core.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/trace_event.hh"

namespace ipref
{

OoOCore::OoOCore(CoreId id, const CoreParams &params,
                 CacheHierarchy &hierarchy, PrefetchEngine &engine,
                 TraceSource *trace)
    : id_(id),
      params_(params),
      hierarchy_(hierarchy),
      engine_(engine),
      trace_(trace),
      bp_(params.bp),
      itlb_(params.tlb),
      dtlb_(params.tlb),
      rob_(params.robEntries),
      fetchBuf_(params.fetchBufferEntries),
      block_(std::max(1u, params.fetchBlockRecords))
{
    regReady_.fill(0);
}

bool
OoOCore::done() const
{
    return exhausted_ && blockPos_ == blockLen_ &&
           fetchBuf_.empty() && rob_.empty();
}

void
OoOCore::chargeCycles(CycleBucket b, Cycle now, Addr line,
                      std::uint64_t n)
{
    ledger_.charge(b, n);
    if (epOpen_ && epBucket_ == b) {
        epCycles_ += n;
        return;
    }
    closeEpisode(now);
    epOpen_ = true;
    epBucket_ = b;
    epCycles_ = n;
    epLine_ = line;
    if (b == CycleBucket::PrefetchPartial)
        epPartialOrigin_ = stallPartialOrigin_;
}

void
OoOCore::closeEpisode(Cycle now)
{
    if (epOpen_ && epCycles_ > 0 &&
        epBucket_ != CycleBucket::Busy) {
        // Busy runs are derived (cycles minus stalls) rather than
        // traced; every stall bucket has a non-zero detail id.
        IPREF_TRACE(TraceEventType::FetchStall,
                    static_cast<std::uint16_t>(id_), epLine_,
                    epCycles_,
                    static_cast<std::uint8_t>(epBucket_), now);
        if (epBucket_ == CycleBucket::PrefetchPartial)
            engine_.notePartialStall(epLine_, epCycles_,
                                     epPartialOrigin_);
    }
    epOpen_ = false;
    epCycles_ = 0;
}

void
OoOCore::onMeasureBegin()
{
    // The ledger counters were just reset with the stats tree and the
    // trace sink cleared: restart the open episode's cycle count so
    // its eventual trace event covers only post-boundary cycles.
    epCycles_ = 0;
}

void
OoOCore::finishAccounting(Cycle now)
{
    closeEpisode(now);
}

void
OoOCore::tick(Cycle now)
{
    commitStage(now);
    issueStage(now);
    dispatchStage(now);
    fetchStage(now);
    // Prefetches take the L1I tag port only on cycles with no demand
    // fetch access.
    engine_.tick(now, !demandFetchedThisCycle_);
}

Cycle
OoOCore::nextActiveCycle(Cycle now) const
{
    // Work available this very cycle: a queued prefetch (the tag port
    // is free whenever fetch is idle) or a fetch that could deliver.
    if (engine_.hasIssueWork())
        return now;
    if (!blockedOnSeq_ && now >= fetchResumeAt_ &&
        fetchBuf_.size() < params_.fetchBufferEntries &&
        !(exhausted_ && blockPos_ == blockLen_))
        return now;

    Cycle wake = neverCycle;
    if (!rob_.empty() && rob_.front().issued)
        wake = std::min(wake, rob_.front().execDone); // commit
    if (robUnissued_ > 0)
        wake = std::min(wake, issueWakeAt_); // issue scan
    if (!fetchBuf_.empty() && rob_.size() < params_.robEntries)
        wake = std::min(wake, fetchBuf_.front().availAt); // dispatch
    if (!blockedOnSeq_ && fetchResumeAt_ > now) {
        wake = std::min(wake, fetchResumeAt_); // fetch resumes
        // The stall bucket flips from the fill level to the I-TLB
        // here (a stale value from an older stall lies in the past).
        if (stallFillReady_ >= now)
            wake = std::min(wake, stallFillReady_);
    }
    return std::max(wake, now);
}

void
OoOCore::idle(Cycle from, std::uint64_t n)
{
    if (n == 0)
        return;
    // The charges of dispatchStage() and fetchStage() on a tick with
    // nothing to do; the state they read is frozen while asleep.
    if (rob_.size() >= params_.robEntries)
        robFullCycles += n;
    if (chargeFetchWait(from, n))
        return;
    chargeCycles(fetchBuf_.size() >= params_.fetchBufferEntries
                     ? CycleBucket::Backpressure
                     : CycleBucket::Drain,
                 from, curFetchLine_, n);
}

bool
OoOCore::chargeFetchWait(Cycle now, std::uint64_t n)
{
    if (blockedOnSeq_) {
        branchStallCycles += n;
        chargeCycles(CycleBucket::BranchRedirect, now, curFetchLine_,
                     n);
        return true;
    }
    if (now < fetchResumeAt_) {
        fetchStallCycles += n;
        chargeCycles(stallBucket(now), now, stallLine_, n);
        return true;
    }
    return false;
}

void
OoOCore::commitStage(Cycle now)
{
    unsigned n = 0;
    while (n < params_.commitWidth && !rob_.empty()) {
        const RobEntry &head = rob_.front();
        if (!head.issued || head.execDone > now)
            break;
        rob_.pop_front();
        ++n;
    }
    if (n) {
        committed_ += n;
        issueHint_ -= std::min<std::size_t>(issueHint_, n);
    }
}

Cycle
OoOCore::execute(const RobEntry &entry, Cycle now)
{
    switch (entry.op) {
      case OpClass::IntMul:
        return now + params_.intMulLatency;
      case OpClass::FpAlu:
        return now + params_.fpLatency;
      case OpClass::Load: {
        ++loadsIssued;
        Cycle pen = dtlb_.translate(entry.dataAddr);
        DataResult res =
            hierarchy_.dataAccess(id_, entry.dataAddr, false, now);
        return res.ready + pen;
      }
      case OpClass::Store:
        ++storesIssued;
        dtlb_.translate(entry.dataAddr);
        hierarchy_.dataAccess(id_, entry.dataAddr, true, now);
        return now + 1; // store buffer hides the latency
      default:
        return now + 1;
    }
}

void
OoOCore::issueStage(Cycle now)
{
    // Common stalled case: everything resident has issued and the
    // core is waiting on a fill or the commit head — nothing to scan.
    if (robUnissued_ == 0)
        return;
    if (now < issueWakeAt_)
        return;
    unsigned issued = 0;
    const std::size_t n = rob_.size();
    constexpr std::size_t npos = ~std::size_t{0};
    std::size_t firstLeft = npos; //!< oldest entry left unissued
    Cycle minWake = neverCycle;   //!< earliest skipped-entry wake-up
    std::size_t idx = issueHint_;
    for (; idx < n; ++idx) {
        if (issued >= params_.issueWidth)
            break;
        RobEntry &entry = rob_[idx];
        if (entry.issued)
            continue;
        Cycle srcReady = entry.srcReg[0]
                             ? regReady_[entry.srcReg[0]]
                             : 0;
        if (entry.srcReg[1])
            srcReady =
                std::max(srcReady, regReady_[entry.srcReg[1]]);
        if (srcReady > now) {
            if (firstLeft == npos)
                firstLeft = idx;
            minWake = std::min(minWake, srcReady);
            continue;
        }
        entry.issued = true;
        --robUnissued_;
        entry.execDone = execute(entry, now);
        if (entry.dstReg)
            regReady_[entry.dstReg] = entry.execDone;
        if (blockedOnSeq_ && *blockedOnSeq_ == entry.seq) {
            // The mispredicted CTI resolved: schedule the redirect.
            fetchResumeAt_ =
                entry.execDone + params_.redirectPenalty;
            blockedOnSeq_.reset();
            stallIsRedirect_ = true;
            stallLine_ = curFetchLine_;
        }
        ++issued;
    }
    // Everything older than the first entry this scan left behind
    // (or, with none left, than the stop point) has issued.
    issueHint_ = firstLeft != npos ? firstLeft : idx;
    // With nothing issued, no register-ready time changed and the
    // whole window was scanned (the width break is unreachable), so
    // re-scanning is futile until the earliest skipped entry's
    // sources are ready. A dispatch resets the wake-up.
    issueWakeAt_ = issued == 0 ? minWake : 0;
}

void
OoOCore::dispatchStage(Cycle now)
{
    unsigned n = 0;
    while (n < params_.dispatchWidth && !fetchBuf_.empty() &&
           rob_.size() < params_.robEntries) {
        const FetchedInstr &fi = fetchBuf_.front();
        if (fi.availAt > now)
            break;
        RobEntry &e = rob_.emplace_back();
        e.execDone = neverCycle;
        e.seq = fi.seq;
        e.dataAddr = fi.dataAddr;
        e.op = fi.op;
        e.srcReg[0] = fi.srcReg[0];
        e.srcReg[1] = fi.srcReg[1];
        e.dstReg = fi.dstReg;
        e.issued = false;
        ++robUnissued_;
        fetchBuf_.pop_front();
        ++n;
    }
    if (n)
        issueWakeAt_ = 0; // new entries may issue immediately
    if (rob_.size() >= params_.robEntries)
        ++robFullCycles;
}

bool
OoOCore::refillBlock()
{
    if (exhausted_ || !trace_) {
        exhausted_ = trace_ != nullptr;
        return false;
    }
    blockLen_ = static_cast<std::uint32_t>(
        trace_->nextBatch({block_.data(), block_.size()}));
    blockPos_ = 0;
    if (blockLen_ == 0) {
        exhausted_ = true;
        return false;
    }
    return true;
}

std::pair<std::size_t, bool>
OoOCore::fetchFromSpan(std::span<const InstrRecord> recs, Cycle now,
                       unsigned &fetched, bool &stalled)
{
    std::size_t i = 0;
    while (i < recs.size() && fetched < params_.fetchWidth &&
           fetchBuf_.size() < params_.fetchBufferEntries) {
        const InstrRecord &rec = recs[i];

        Addr line = hierarchy_.lineOf(rec.pc);
        if (line != curFetchLine_) {
            FetchTransition tr = havePrev_
                                     ? prevFetched_.transitionType()
                                     : FetchTransition::Sequential;
            Cycle tlb_pen = itlb_.translate(rec.pc);
            FetchResult res =
                hierarchy_.fetchAccess(id_, rec.pc, tr, now);
            demandFetchedThisCycle_ = true;

            DemandFetchEvent ev;
            ev.lineAddr = line;
            ev.prevLineAddr = curFetchLine_;
            ev.transition = tr;
            ev.now = now;
            ev.miss = res.l1Miss;
            ev.firstUseOfPrefetch = res.firstUseOfPrefetch;
            ev.latePrefetchHit = res.latePrefetchHit;
            engine_.onDemandFetch(ev);

            curFetchLine_ = line;
            Cycle ready = res.ready + tlb_pen;
            if (ready > now + hierarchy_.params().l1Latency) {
                // Line not deliverable this cycle: stall fetch until
                // the fill (or translation) completes. Record the
                // cause so the waited cycles charge to the level
                // satisfying the miss (and the translation remainder
                // to the I-TLB bucket). The record is NOT consumed —
                // it delivers after the stall without re-access.
                fetchResumeAt_ = ready;
                stallIsRedirect_ = false;
                stallFillReady_ = res.ready;
                stallLine_ = line;
                if (res.latePrefetchHit) {
                    stallFillBucket_ = CycleBucket::PrefetchPartial;
                    stallPartialOrigin_ =
                        engine_.lastCreditedOrigin(line);
                } else if (res.l2Miss || res.fromMemory) {
                    stallFillBucket_ = CycleBucket::FetchMem;
                } else if (res.l1Miss) {
                    stallFillBucket_ = CycleBucket::FetchL2;
                } else {
                    stallFillBucket_ = CycleBucket::FetchL1I;
                }
                stalled = true;
                return {i, true};
            }
        }

        FetchedInstr &fi = fetchBuf_.emplace_back();
        fi.availAt = now + params_.frontendDelay;
        fi.seq = nextSeq_++;
        fi.dataAddr = rec.dataAddr;
        fi.op = rec.op;
        fi.srcReg[0] = rec.srcReg[0];
        fi.srcReg[1] = rec.srcReg[1];
        fi.dstReg = rec.dstReg;
        ++i;
        prevFetched_ = rec;
        havePrev_ = true;
        ++fetchedInstrs;
        ++fetched;

        if (rec.isCti()) {
            // Event construction is skipped when the configured
            // scheme ignores the event class (only call-graph
            // consumes function events, only wrong-path consumes
            // branch events).
            if (engine_.wantsFunctionEvents() &&
                (rec.op == OpClass::Call ||
                 rec.op == OpClass::Jump ||
                 rec.op == OpClass::Return)) {
                FunctionEvent fe;
                fe.isReturn = rec.op == OpClass::Return;
                fe.sitePc = rec.pc;
                fe.target = rec.target;
                engine_.onFunction(fe);
            }
            if (engine_.wantsBranchEvents() &&
                rec.op == OpClass::CondBranch) {
                BranchEvent be;
                be.branchPc = rec.pc;
                be.takenTarget = rec.target;
                be.fallthrough = rec.pc + instrBytes;
                be.taken = rec.taken;
                engine_.onBranch(be);
            }
            bool correct = bp_.predict(rec);
            if (!correct) {
                // No wrong path in a trace-driven model: block fetch
                // until this CTI issues, then apply the redirect
                // penalty (see issueStage).
                blockedOnSeq_ = fi.seq;
                return {i, true};
            }
            if (rec.redirects())
                return {i, true}; // a taken CTI ends the fetch group
        }
    }
    return {i, false};
}

void
OoOCore::fetchStage(Cycle now)
{
    demandFetchedThisCycle_ = false;
    if (chargeFetchWait(now, 1))
        return;

    unsigned fetched = 0;
    bool stalled = false;
    const bool bufferFull =
        fetchBuf_.size() >= params_.fetchBufferEntries;
    while (fetched < params_.fetchWidth &&
           fetchBuf_.size() < params_.fetchBufferEntries) {
        if (blockPos_ == blockLen_ && !refillBlock())
            break;
        auto [consumed, stop] = fetchFromSpan(
            {block_.data() + blockPos_,
             static_cast<std::size_t>(blockLen_ - blockPos_)},
            now, fetched, stalled);
        blockPos_ += static_cast<std::uint32_t>(consumed);
        if (stop)
            break;
    }

    // Attribute this tick to exactly one CPI bucket. Order matters:
    // any delivered instruction makes the cycle busy; a fresh stall
    // charges like the waited cycles will; a full fetch buffer is
    // back-end backpressure; otherwise the stream has drained.
    if (fetched > 0)
        chargeCycles(CycleBucket::Busy, now, curFetchLine_);
    else if (stalled)
        chargeCycles(stallBucket(now), now, stallLine_);
    else if (bufferFull)
        chargeCycles(CycleBucket::Backpressure, now, curFetchLine_);
    else
        chargeCycles(CycleBucket::Drain, now, curFetchLine_);
}

void
OoOCore::registerStats(StatGroup &group)
{
    group.addCounter("committed", &committed_,
                     "instructions committed");
    group.addCounter("fetched", &fetchedInstrs, "instructions fetched");
    group.addCounter("fetch_stall_cycles", &fetchStallCycles,
                     "cycles fetch waited on a fill");
    group.addCounter("branch_stall_cycles", &branchStallCycles,
                     "cycles fetch was blocked on a branch");
    group.addCounter("rob_full_cycles", &robFullCycles,
                     "cycles the reorder buffer was full");
    group.addCounter("loads", &loadsIssued, "loads issued");
    group.addCounter("stores", &storesIssued, "stores issued");
    ledger_.registerStats(group);
    bp_.registerStats(group);
}

} // namespace ipref
