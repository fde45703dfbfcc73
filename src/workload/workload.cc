#include "workload/workload.hh"

#include <algorithm>

#include "util/bitutil.hh"
#include "util/logging.hh"

namespace ipref
{

Workload::Workload(std::shared_ptr<const ProgramCfg> prog,
                   std::uint64_t walkSeed, Addr dataOffset)
    : prog_(std::move(prog)),
      walkSeed_(walkSeed),
      dataOffset_(dataOffset),
      rng_(walkSeed ^ hashString("workload-walk")),
      hotZipf_(std::max<std::size_t>(
                   1, prog_->config().hotDataBytes / 64),
               prog_->config().hotDataZipfAlpha)
{
    const WorkloadConfig &cfg = prog_->config();
    coldWrap_ = std::max<std::uint64_t>(64, cfg.coldDataBytes);
    frameBytes_ = cfg.stackFrameBytes;
    warmLines_ = cfg.warmDataBytes / 64;
    hotBase_ = cfg.dataBase + dataOffset_;
    warmBase_ = hotBase_ + alignUp(cfg.hotDataBytes, 1u << 20);
    coldBase_ = warmBase_ + alignUp(cfg.warmDataBytes, 1u << 20);
    stackBase_ = coldBase_ + alignUp(cfg.coldDataBytes, 1u << 20) +
                 (16u << 20);

    // Every probability test of the walk as an exact integer compare
    // (Rng::chanceThreshold), fixed here once.
    if (!prog_->trapFuncs().empty()) {
        if (cfg.contextSwitchPeriod > 0 && cfg.concurrentContexts > 1)
            switchBelow_ =
                Rng::chanceThreshold(1.0 / cfg.contextSwitchPeriod);
        trapBelow_ = Rng::chanceThreshold(cfg.trapProbability);
    }
    stackBelow_ = Rng::chanceThreshold(cfg.stackAccessFraction);
    hotBelow_ = Rng::chanceThreshold(cfg.hotAccessFraction);
    if (cfg.warmDataBytes >= 64)
        warmBelow_ = Rng::chanceThreshold(cfg.hotAccessFraction +
                                          cfg.warmAccessFraction);

    loopTaken_.assign(prog_->blocks().size(), 0);
    reset();
}

void
Workload::reset()
{
    const WorkloadConfig &cfg = prog_->config();
    rng_ = Rng(walkSeed_ ^ hashString("workload-walk"));
    std::fill(loopTaken_.begin(), loopTaken_.end(), 0);
    inTrap_ = false;
    coldCursor_ = 0;
    transactions_ = 0;
    emitted_ = 0;
    switches_ = 0;
    active_ = 0;

    unsigned k = std::max(1u, cfg.concurrentContexts);
    contexts_.assign(k, Context{});
    // All contexts start in the dispatcher; their walks diverge.
    for (auto &ctx : contexts_) {
        ctx.curBlock = prog_->functions()[0].firstBlock;
        ctx.instrIdx = 0;
    }
}

Addr
Workload::addrOf(std::uint32_t gb, unsigned idx) const
{
    const BasicBlock &bb = prog_->blocks()[gb];
    return bb.startPc + static_cast<Addr>(idx) * instrBytes;
}

inline Workload::Async
Workload::drawAsync(Rng &rng, std::uint64_t switchBelow,
                    std::uint64_t trapBelow)
{
    // Asynchronous events, taken "at" the address of the instruction
    // about to execute: timer-interrupt context switches and plain
    // traps. Both run a trap-handler function; the handler's return
    // resumes either the next context (switch) or the same one.
    if (switchBelow != 0 && rng.chanceBelow(switchBelow))
        return Async::Switch;
    if (trapBelow != 0 && rng.chanceBelow(trapBelow))
        return Async::Trap;
    return Async::None;
}

inline Addr
Workload::genDataAddr(Rng &rng, std::uint64_t &coldCursor,
                      Addr frameTop) const
{
    if (rng.chanceBelow(stackBelow_)) // per-context stack frame
        return alignDown(frameTop + rng.below(frameBytes_), 4);
    const std::uint64_t v = rng.next() >> 11;
    if (v < hotBelow_) {
        std::uint64_t line = hotZipf_.sample(rng);
        return hotBase_ + line * 64 + (rng.below(16) * 4);
    }
    if (v < warmBelow_) {
        std::uint64_t line = rng.below(warmLines_);
        return warmBase_ + line * 64 + (rng.below(16) * 4);
    }
    // Cold/streaming: walk through the region at word granularity
    // (a scan touches each line ~16 times before moving on). The
    // cursor stays below coldWrap_ and advances by 4 <= coldWrap_, so
    // a single conditional subtract equals the modulo it replaces.
    coldCursor += 4;
    if (coldCursor >= coldWrap_)
        coldCursor -= coldWrap_;
    return coldBase_ + alignDown(coldCursor, 4);
}

inline InstrRecord *
Workload::emitRun(const BasicBlock &bb, unsigned &idx, unsigned stop,
                  bool handler, InstrRecord *o, InstrRecord *end,
                  Async &event)
{
    // The walk state lives in locals for the run: a store into a
    // record may alias a member, so members would be reloaded (and
    // the RNG state re-stored) after every record.
    Rng rng = rng_;
    std::uint64_t cold = coldCursor_;
    const std::uint64_t switchBelow = handler ? 0 : switchBelow_;
    const std::uint64_t trapBelow = handler ? 0 : trapBelow_;
    const StaticInstr *const slots =
        prog_->instrs().data() + bb.instrBase;
    // Stack accesses use the running context's frame (the interrupted
    // one's in a handler); its depth is fixed within a block.
    const Addr frameTop =
        stackBase_ + (static_cast<Addr>(active_) << 16) -
        (contexts_[active_].stack.size() + 1) * frameBytes_;

    unsigned i = idx;
    const unsigned last = static_cast<unsigned>(std::min<std::size_t>(
        stop, i + static_cast<std::size_t>(end - o)));
    Addr pc = bb.startPc + static_cast<Addr>(i) * instrBytes;
    for (; i < last; ++i, ++o, pc += instrBytes) {
        event = drawAsync(rng, switchBelow, trapBelow);
        if (event != Async::None)
            break;
        const StaticInstr s = slots[i];
        const bool mem = s.op == OpClass::Load || s.op == OpClass::Store;
        *o = InstrRecord{pc,
                         0,
                         mem ? genDataAddr(rng, cold, frameTop) : 0,
                         s.op,
                         false,
                         {s.src0, s.src1},
                         s.dst};
    }
    rng_ = rng;
    coldCursor_ = cold;
    idx = i;
    return o;
}

std::size_t
Workload::nextBatch(std::span<InstrRecord> out)
{
    const BasicBlock *const blocks = prog_->blocks().data();
    InstrRecord *o = out.data();
    InstrRecord *const end = o + out.size();
    while (o != end) {
        // The walk is in the running context's block or, after a trap
        // or switch, in the (leaf) handler's; handlers draw no
        // asynchronous events.
        const bool handler = inTrap_;
        Context &ctx = contexts_[active_];
        std::uint32_t &blk = handler ? trapBlock_ : ctx.curBlock;
        unsigned &idx = handler ? trapInstr_ : ctx.instrIdx;
        const BasicBlock &bb = blocks[blk];
        const bool fallThrough = bb.term == TermKind::FallThrough;
        const unsigned stop = bb.numInstrs - (fallThrough ? 0u : 1u);

        Async event = Async::None;
        if (idx < stop)
            o = emitRun(bb, idx, stop, handler, o, end, event);
        if (event == Async::None && idx == stop) {
            if (fallThrough) {
                ++blk; // blocks are contiguous
                idx = 0;
                continue;
            }
            if (o == end)
                break;
            if (!handler)
                event = drawAsync(rng_, switchBelow_, trapBelow_);
            if (event == Async::None) {
                emitTerminator(bb, blk, idx, handler, *o++);
                continue;
            }
        }
        if (event != Async::None)
            takeTrap(*o++, event);
    }
    emitted_ += out.size();
    return out.size();
}

void
Workload::takeTrap(InstrRecord &out, Async event)
{
    const auto &funcs = prog_->functions();
    std::uint32_t h =
        prog_->trapFuncs()[rng_.below(prog_->trapFuncs().size())];
    const Context &ctx = contexts_[active_];
    out = InstrRecord{};
    out.pc = addrOf(ctx.curBlock, ctx.instrIdx);
    out.op = OpClass::Trap;
    out.taken = true;
    out.target = funcs[h].entry;
    inTrap_ = true;
    trapBlock_ = funcs[h].firstBlock;
    trapInstr_ = 0;
    trapResumeCtx_ = active_;
    if (event == Async::Switch) {
        ++switches_;
        trapResumeCtx_ = (active_ + 1) % contexts_.size();
    }
}

void
Workload::emitTerminator(const BasicBlock &bb, std::uint32_t &blk,
                         unsigned &idx, bool handler, InstrRecord &out)
{
    const auto &blocks = prog_->blocks();
    const auto &funcs = prog_->functions();
    const StaticInstr &si = prog_->instrs()[bb.instrBase + idx];
    out = InstrRecord{};
    out.pc = bb.termPc();
    out.srcReg[0] = si.src0;
    out.srcReg[1] = si.src1;
    out.taken = true;
    idx = 0;

    if (handler && (bb.term == TermKind::Call ||
                    bb.term == TermKind::IndirectCall))
        ipref_panic("trap handlers are leaf functions");
    Context &ctx = contexts_[active_];
    switch (bb.term) {
      case TermKind::CondBranch: {
        out.op = OpClass::CondBranch;
        out.target = blocks[bb.targetBlock].startPc;
        bool taken = rng_.chanceBelow(bb.takenBelow);
        if (bb.isBackEdge) {
            std::uint8_t &cnt = loopTaken_[blk];
            if (taken) {
                if (++cnt >= maxConsecutiveTrips) {
                    taken = false;
                    cnt = 0;
                }
            } else {
                cnt = 0;
            }
        }
        out.taken = taken;
        blk = taken ? bb.targetBlock : blk + 1;
        break;
      }
      case TermKind::UncondBranch:
        out.op = OpClass::UncondBranch;
        if (bb.isTailCall) {
            // Tail call: jump to the sibling's entry without pushing
            // a frame; its return unwinds to our caller. (Handlers
            // have no tail calls.)
            out.target = funcs[bb.targetFunc].entry;
            blk = funcs[bb.targetFunc].firstBlock;
        } else {
            out.target = blocks[bb.targetBlock].startPc;
            blk = bb.targetBlock;
        }
        break;
      case TermKind::Call:
        out.op = OpClass::Call;
        out.target = funcs[bb.targetFunc].entry;
        out.dstReg = 31; // link register
        ctx.stack.push_back({blk + 1, 0});
        blk = funcs[bb.targetFunc].firstBlock;
        break;
      case TermKind::IndirectCall: {
        out.op = OpClass::Jump;
        const IndirectSet &iset =
            prog_->indirectSets()[bb.indirectSet];
        double u = rng_.uniform();
        std::size_t pick = 0;
        while (pick + 1 < iset.cdf.size() && iset.cdf[pick] < u)
            ++pick;
        std::uint32_t callee = iset.funcs[pick];
        out.target = funcs[callee].entry;
        out.dstReg = 31;
        ctx.stack.push_back({blk + 1, 0});
        blk = funcs[callee].firstBlock;
        break;
      }
      case TermKind::Return: {
        out.op = OpClass::Return;
        out.srcReg[0] = 31;
        if (handler) {
            // End of handler: resume the chosen context.
            inTrap_ = false;
            active_ = trapResumeCtx_;
            const Context &resumed = contexts_[active_];
            out.target = addrOf(resumed.curBlock, resumed.instrIdx);
            break;
        }
        if (ctx.stack.empty()) {
            // Should not happen (dispatcher loops), but recover.
            out.target = funcs[0].entry;
            blk = funcs[0].firstBlock;
            break;
        }
        Frame f = ctx.stack.back();
        ctx.stack.pop_back();
        out.target = addrOf(f.retBlock, f.retInstr);
        blk = f.retBlock;
        idx = f.retInstr;
        // Returning into the dispatcher completes a transaction.
        const Function &d = funcs[0];
        if (f.retBlock >= d.firstBlock &&
            f.retBlock < d.firstBlock + d.numBlocks) {
            ++transactions_;
        }
        break;
      }
      case TermKind::FallThrough:
        ipref_panic("fall-through blocks have no terminator");
    }
}

} // namespace ipref
