/**
 * @file
 * Reference model of the workload walker, kept for differential
 * testing of the batch walker in Workload::nextBatch: the original
 * one-record-per-call walk, every probability test a floating-point
 * `uniform() < p`, every field re-derived per record. Same
 * constructor, same RNG stream and same records as Workload.
 */

#ifndef IPREF_TESTS_REFERENCE_WORKLOAD_HH
#define IPREF_TESTS_REFERENCE_WORKLOAD_HH

#include <algorithm>
#include <memory>
#include <vector>

#include "util/bitutil.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "workload/cfg.hh"

namespace ipref::test
{

class ReferenceWorkload
{
  public:
    ReferenceWorkload(std::shared_ptr<const ProgramCfg> prog,
                      std::uint64_t walkSeed, Addr dataOffset = 0)
        : prog_(std::move(prog)),
          rng_(walkSeed ^ hashString("workload-walk")),
          hotZipf_(std::max<std::size_t>(
                       1, prog_->config().hotDataBytes / 64),
                   prog_->config().hotDataZipfAlpha)
    {
        const WorkloadConfig &cfg = prog_->config();
        coldWrap_ = std::max<std::uint64_t>(64, cfg.coldDataBytes);
        hotBase_ = cfg.dataBase + dataOffset;
        warmBase_ = hotBase_ + alignUp(cfg.hotDataBytes, 1u << 20);
        coldBase_ = warmBase_ + alignUp(cfg.warmDataBytes, 1u << 20);
        stackBase_ = coldBase_ + alignUp(cfg.coldDataBytes, 1u << 20) +
                     (16u << 20);
        loopTaken_.assign(prog_->blocks().size(), 0);
        unsigned k = std::max(1u, cfg.concurrentContexts);
        contexts_.assign(k, Context{});
        for (auto &ctx : contexts_)
            ctx.curBlock = prog_->functions()[0].firstBlock;
        switchProb_ = cfg.contextSwitchPeriod > 0 && k > 1
                          ? 1.0 / cfg.contextSwitchPeriod
                          : 0.0;
    }

    std::uint64_t transactions = 0;
    std::uint64_t switches = 0;

    InstrRecord
    next()
    {
        InstrRecord out;
        step(out);
        return out;
    }

  private:
    struct Frame
    {
        std::uint32_t retBlock;
        std::uint16_t retInstr;
    };

    struct Context
    {
        std::vector<Frame> stack;
        std::uint32_t curBlock = 0;
        unsigned instrIdx = 0;
    };

    static constexpr std::uint8_t maxConsecutiveTrips = 96;

    Addr
    addrOf(std::uint32_t gb, unsigned idx) const
    {
        return prog_->blocks()[gb].startPc +
               static_cast<Addr>(idx) * instrBytes;
    }

    Addr
    genDataAddr()
    {
        const WorkloadConfig &cfg = prog_->config();
        double u = rng_.uniform();
        if (u < cfg.stackAccessFraction) {
            std::uint64_t depth = contexts_[active_].stack.size() + 1;
            Addr base = stackBase_ + (static_cast<Addr>(active_) << 16);
            Addr frame_top = base - depth * cfg.stackFrameBytes;
            return alignDown(frame_top + rng_.below(cfg.stackFrameBytes),
                             4);
        }
        double v = rng_.uniform();
        if (v < cfg.hotAccessFraction) {
            std::uint64_t line = hotZipf_.sample(rng_);
            return hotBase_ + line * 64 + (rng_.below(16) * 4);
        }
        if (v < cfg.hotAccessFraction + cfg.warmAccessFraction &&
            cfg.warmDataBytes >= 64) {
            std::uint64_t line = rng_.below(cfg.warmDataBytes / 64);
            return warmBase_ + line * 64 + (rng_.below(16) * 4);
        }
        coldCursor_ = (coldCursor_ + 4) % coldWrap_;
        return coldBase_ + alignDown(coldCursor_, 4);
    }

    void
    emitStatic(const BasicBlock &bb, InstrRecord &out)
    {
        unsigned idx = inTrap_ ? trapInstr_ : contexts_[active_].instrIdx;
        const StaticInstr &si = prog_->instrs()[bb.instrBase + idx];
        out.pc = bb.startPc + static_cast<Addr>(idx) * instrBytes;
        out.op = si.op;
        out.taken = false;
        out.target = 0;
        out.srcReg[0] = si.src0;
        out.srcReg[1] = si.src1;
        out.dstReg = si.dst;
        out.dataAddr = si.op == OpClass::Load || si.op == OpClass::Store
                           ? genDataAddr()
                           : 0;
    }

    void
    takeTrap(InstrRecord &out, std::size_t resumeCtx)
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
        trapResumeCtx_ = resumeCtx;
    }

    bool
    takeBranch(const BasicBlock &bb, std::uint32_t gb)
    {
        bool taken = rng_.chance(bb.takenProb);
        if (bb.isBackEdge) {
            std::uint8_t &cnt = loopTaken_[gb];
            if (taken) {
                if (++cnt >= maxConsecutiveTrips) {
                    taken = false;
                    cnt = 0;
                }
            } else {
                cnt = 0;
            }
        }
        return taken;
    }

    void
    step(InstrRecord &out)
    {
        const auto &blocks = prog_->blocks();
        const auto &funcs = prog_->functions();
        const WorkloadConfig &cfg = prog_->config();

        if (!inTrap_ && !prog_->trapFuncs().empty()) {
            if (switchProb_ > 0 && rng_.chance(switchProb_)) {
                ++switches;
                takeTrap(out, (active_ + 1) % contexts_.size());
                return;
            }
            if (cfg.trapProbability > 0 &&
                rng_.chance(cfg.trapProbability)) {
                takeTrap(out, active_);
                return;
            }
        }

        if (inTrap_) {
            const BasicBlock &bb = blocks[trapBlock_];
            bool is_term = trapInstr_ + 1u >= bb.numInstrs;
            if (!is_term || bb.term == TermKind::FallThrough) {
                emitStatic(bb, out);
                if (++trapInstr_ >= bb.numInstrs) {
                    ++trapBlock_;
                    trapInstr_ = 0;
                }
                return;
            }
            const StaticInstr &si =
                prog_->instrs()[bb.instrBase + trapInstr_];
            out = InstrRecord{};
            out.pc = bb.termPc();
            out.srcReg[0] = si.src0;
            out.srcReg[1] = si.src1;
            switch (bb.term) {
              case TermKind::CondBranch:
                out.op = OpClass::CondBranch;
                out.target = blocks[bb.targetBlock].startPc;
                out.taken = takeBranch(bb, trapBlock_);
                trapBlock_ = out.taken ? bb.targetBlock : trapBlock_ + 1;
                trapInstr_ = 0;
                break;
              case TermKind::UncondBranch:
                out.op = OpClass::UncondBranch;
                out.taken = true;
                out.target = blocks[bb.targetBlock].startPc;
                trapBlock_ = bb.targetBlock;
                trapInstr_ = 0;
                break;
              case TermKind::Return: {
                out.op = OpClass::Return;
                out.taken = true;
                out.srcReg[0] = 31;
                inTrap_ = false;
                active_ = trapResumeCtx_;
                const Context &ctx = contexts_[active_];
                out.target = addrOf(ctx.curBlock, ctx.instrIdx);
                break;
              }
              default:
                ipref_panic("trap handlers are leaf functions");
            }
            return;
        }

        Context &ctx = contexts_[active_];
        const BasicBlock &bb = blocks[ctx.curBlock];
        bool is_term = ctx.instrIdx + 1u >= bb.numInstrs;
        if (!is_term || bb.term == TermKind::FallThrough) {
            emitStatic(bb, out);
            if (++ctx.instrIdx >= bb.numInstrs) {
                ++ctx.curBlock;
                ctx.instrIdx = 0;
            }
            return;
        }

        const StaticInstr &si = prog_->instrs()[bb.instrBase +
                                                ctx.instrIdx];
        out = InstrRecord{};
        out.pc = bb.termPc();
        out.srcReg[0] = si.src0;
        out.srcReg[1] = si.src1;
        auto goto_block = [&](std::uint32_t gb) {
            ctx.curBlock = gb;
            ctx.instrIdx = 0;
        };
        switch (bb.term) {
          case TermKind::CondBranch:
            out.op = OpClass::CondBranch;
            out.target = blocks[bb.targetBlock].startPc;
            out.taken = takeBranch(bb, ctx.curBlock);
            goto_block(out.taken ? bb.targetBlock : ctx.curBlock + 1);
            break;
          case TermKind::UncondBranch:
            out.op = OpClass::UncondBranch;
            out.taken = true;
            if (bb.isTailCall) {
                out.target = funcs[bb.targetFunc].entry;
                goto_block(funcs[bb.targetFunc].firstBlock);
            } else {
                out.target = blocks[bb.targetBlock].startPc;
                goto_block(bb.targetBlock);
            }
            break;
          case TermKind::Call:
            out.op = OpClass::Call;
            out.taken = true;
            out.target = funcs[bb.targetFunc].entry;
            out.dstReg = 31;
            ctx.stack.push_back({ctx.curBlock + 1, 0});
            goto_block(funcs[bb.targetFunc].firstBlock);
            break;
          case TermKind::IndirectCall: {
            out.op = OpClass::Jump;
            out.taken = true;
            const IndirectSet &iset =
                prog_->indirectSets()[bb.indirectSet];
            double u = rng_.uniform();
            std::size_t pick = 0;
            while (pick + 1 < iset.cdf.size() && iset.cdf[pick] < u)
                ++pick;
            std::uint32_t callee = iset.funcs[pick];
            out.target = funcs[callee].entry;
            out.dstReg = 31;
            ctx.stack.push_back({ctx.curBlock + 1, 0});
            goto_block(funcs[callee].firstBlock);
            break;
          }
          case TermKind::Return: {
            out.op = OpClass::Return;
            out.taken = true;
            out.srcReg[0] = 31;
            if (ctx.stack.empty()) {
                out.target = funcs[0].entry;
                goto_block(funcs[0].firstBlock);
                break;
            }
            Frame f = ctx.stack.back();
            ctx.stack.pop_back();
            out.target = addrOf(f.retBlock, f.retInstr);
            ctx.curBlock = f.retBlock;
            ctx.instrIdx = f.retInstr;
            const Function &d = funcs[0];
            if (f.retBlock >= d.firstBlock &&
                f.retBlock < d.firstBlock + d.numBlocks)
                ++transactions;
            break;
          }
          case TermKind::FallThrough:
            ipref_panic("fall-through handled above");
        }
    }

    std::shared_ptr<const ProgramCfg> prog_;
    Rng rng_;
    std::vector<Context> contexts_;
    std::size_t active_ = 0;
    bool inTrap_ = false;
    std::uint32_t trapBlock_ = 0;
    unsigned trapInstr_ = 0;
    std::size_t trapResumeCtx_ = 0;
    std::vector<std::uint8_t> loopTaken_;
    ZipfSampler hotZipf_;
    std::uint64_t coldCursor_ = 0;
    std::uint64_t coldWrap_ = 64;
    Addr hotBase_ = 0;
    Addr warmBase_ = 0;
    Addr coldBase_ = 0;
    Addr stackBase_ = 0;
    double switchProb_ = 0.0;
};

} // namespace ipref::test

#endif // IPREF_TESTS_REFERENCE_WORKLOAD_HH
