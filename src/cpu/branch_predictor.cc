#include "cpu/branch_predictor.hh"

#include "util/bitutil.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace ipref
{

GsharePredictor::GsharePredictor(std::uint32_t entries)
{
    if (!isPowerOfTwo(entries))
        ipref_raise(ConfigError, "gshare entries must be a power of two");
    table_.assign(entries, 2); // weakly taken
    mask_ = entries - 1;
}

std::uint32_t
GsharePredictor::indexOf(Addr pc) const
{
    return static_cast<std::uint32_t>(
        ((pc >> 2) ^ history_) & mask_);
}

bool
GsharePredictor::predict(Addr pc) const
{
    return table_[indexOf(pc)] >= 2;
}

void
GsharePredictor::update(Addr pc, bool taken)
{
    ++lookups;
    std::uint8_t &ctr = table_[indexOf(pc)];
    bool predicted = ctr >= 2;
    if (predicted != taken)
        ++mispredicts;
    if (taken) {
        if (ctr < 3)
            ++ctr;
    } else {
        if (ctr > 0)
            --ctr;
    }
    history_ = (history_ << 1) | (taken ? 1 : 0);
}

Btb::Btb(std::uint32_t entries)
{
    if (!isPowerOfTwo(entries))
        ipref_raise(ConfigError, "BTB entries must be a power of two");
    table_.assign(entries, 0);
    mask_ = entries - 1;
}

Addr
Btb::predict(Addr pc) const
{
    return table_[(pc >> 2) & mask_];
}

void
Btb::update(Addr pc, Addr target)
{
    table_[(pc >> 2) & mask_] = target;
}

ReturnAddressStack::ReturnAddressStack(std::uint32_t entries)
    : stack_(entries, 0)
{
    ipref_assert(entries >= 1);
}

void
ReturnAddressStack::push(Addr returnAddr)
{
    // Conditional wrap instead of modulo: push/pop run once per
    // call/return in the fetch loop.
    if (++top_ == stack_.size())
        top_ = 0;
    stack_[top_] = returnAddr;
    if (count_ < stack_.size())
        ++count_;
}

Addr
ReturnAddressStack::pop()
{
    if (count_ == 0)
        return 0;
    Addr v = stack_[top_];
    top_ = (top_ == 0 ? stack_.size() : top_) - 1;
    --count_;
    return v;
}

FrontEndPredictor::FrontEndPredictor(const BranchPredictorParams &params)
    : gshare_(params.gshareEntries),
      btb_(params.btbEntries),
      ras_(params.rasEntries)
{}

bool
FrontEndPredictor::predict(const InstrRecord &rec)
{
    ++ctis;
    switch (rec.op) {
      case OpClass::CondBranch: {
        bool predicted = gshare_.predict(rec.pc);
        gshare_.update(rec.pc, rec.taken);
        if (predicted != rec.taken) {
            ++mispredicts;
            ++condMispredicts;
            return false;
        }
        return true;
      }
      case OpClass::UncondBranch:
        return true; // PC-relative: resolved in decode
      case OpClass::Call:
        ras_.push(rec.pc + instrBytes);
        return true; // direct: target embedded
      case OpClass::Jump: {
        // Indirect call: predict via BTB, push the return address.
        Addr predicted = btb_.predict(rec.pc);
        btb_.update(rec.pc, rec.target);
        ras_.push(rec.pc + instrBytes);
        if (predicted != rec.target) {
            ++mispredicts;
            ++jumpMispredicts;
            return false;
        }
        return true;
      }
      case OpClass::Return: {
        Addr predicted = ras_.pop();
        if (predicted != rec.target) {
            ++mispredicts;
            ++returnMispredicts;
            return false;
        }
        return true;
      }
      case OpClass::Trap:
        ++mispredicts;
        return false; // traps always flush the front end
      default:
        ipref_panic("predict() called on a non-CTI");
    }
}

void
FrontEndPredictor::registerStats(StatGroup &group)
{
    group.addCounter("ctis", &ctis, "control transfers predicted");
    group.addCounter("mispredicts", &mispredicts,
                     "control transfers mispredicted");
    group.addCounter("cond_mispredicts", &condMispredicts,
                     "conditional branch direction mispredictions");
    group.addCounter("jump_mispredicts", &jumpMispredicts,
                     "indirect jump target mispredictions");
    group.addCounter("return_mispredicts", &returnMispredicts,
                     "return address mispredictions");
}

} // namespace ipref
