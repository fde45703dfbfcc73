/**
 * @file
 * Tests for the CPU building blocks: branch predictors, TLBs, and
 * the out-of-order core timing model.
 */

#include <gtest/gtest.h>

#include "cpu/branch_predictor.hh"
#include "cpu/core.hh"
#include "cpu/tlb.hh"
#include "trace/trace_source.hh"

using namespace ipref;

namespace
{

InstrRecord
makeInstr(Addr pc, OpClass op, bool taken = false, Addr target = 0)
{
    InstrRecord r;
    r.pc = pc;
    r.op = op;
    r.taken = taken;
    r.target = target;
    return r;
}

} // namespace

TEST(Gshare, LearnsBias)
{
    GsharePredictor g(1024);
    Addr pc = 0x4000;
    for (int i = 0; i < 50; ++i)
        g.update(pc, true);
    EXPECT_TRUE(g.predict(pc));
    for (int i = 0; i < 50; ++i)
        g.update(pc, false);
    EXPECT_FALSE(g.predict(pc));
}

TEST(Gshare, LearnsAlternationViaHistory)
{
    GsharePredictor g(64u << 10);
    Addr pc = 0x4000;
    // Strict alternation is perfectly predictable with history.
    bool taken = false;
    for (int i = 0; i < 4000; ++i) {
        g.update(pc, taken);
        taken = !taken;
    }
    std::uint64_t before = g.mispredicts.value();
    for (int i = 0; i < 1000; ++i) {
        g.update(pc, taken);
        taken = !taken;
    }
    EXPECT_LT(g.mispredicts.value() - before, 50u);
}

TEST(Btb, RemembersTargets)
{
    Btb btb(1024);
    EXPECT_EQ(btb.predict(0x4000), 0u);
    btb.update(0x4000, 0x8000);
    EXPECT_EQ(btb.predict(0x4000), 0x8000u);
    btb.update(0x4000, 0x9000);
    EXPECT_EQ(btb.predict(0x4000), 0x9000u);
}

TEST(Ras, NestedCallsPredictReturns)
{
    ReturnAddressStack ras(16);
    ras.push(0x100);
    ras.push(0x200);
    EXPECT_EQ(ras.pop(), 0x200u);
    EXPECT_EQ(ras.pop(), 0x100u);
    EXPECT_TRUE(ras.empty());
    EXPECT_EQ(ras.pop(), 0u);
}

TEST(Ras, OverflowWraps)
{
    ReturnAddressStack ras(4);
    for (Addr a = 1; a <= 6; ++a)
        ras.push(a * 0x10);
    // Deepest entries were overwritten; the newest 4 survive.
    EXPECT_EQ(ras.pop(), 0x60u);
    EXPECT_EQ(ras.pop(), 0x50u);
    EXPECT_EQ(ras.pop(), 0x40u);
    EXPECT_EQ(ras.pop(), 0x30u);
    EXPECT_TRUE(ras.empty());
}

TEST(FrontEnd, DirectCtisNeverMispredict)
{
    FrontEndPredictor fe(BranchPredictorParams{});
    EXPECT_TRUE(fe.predict(
        makeInstr(0x100, OpClass::UncondBranch, true, 0x900)));
    EXPECT_TRUE(
        fe.predict(makeInstr(0x104, OpClass::Call, true, 0x2000)));
    EXPECT_EQ(fe.mispredicts.value(), 0u);
}

TEST(FrontEnd, CallReturnPairsPredict)
{
    FrontEndPredictor fe(BranchPredictorParams{});
    fe.predict(makeInstr(0x100, OpClass::Call, true, 0x2000));
    // Matching return goes back to pc+4.
    EXPECT_TRUE(
        fe.predict(makeInstr(0x2004, OpClass::Return, true, 0x104)));
    // A return to the wrong place mispredicts.
    fe.predict(makeInstr(0x100, OpClass::Call, true, 0x2000));
    EXPECT_FALSE(
        fe.predict(makeInstr(0x2004, OpClass::Return, true, 0x999)));
    EXPECT_EQ(fe.returnMispredicts.value(), 1u);
}

TEST(FrontEnd, IndirectJumpLearns)
{
    FrontEndPredictor fe(BranchPredictorParams{});
    // First encounter mispredicts; a stable target then predicts.
    EXPECT_FALSE(
        fe.predict(makeInstr(0x100, OpClass::Jump, true, 0x3000)));
    fe.predict(makeInstr(0x3000, OpClass::Return, true, 0x104));
    EXPECT_TRUE(
        fe.predict(makeInstr(0x100, OpClass::Jump, true, 0x3000)));
}

TEST(FrontEnd, TrapAlwaysFlushes)
{
    FrontEndPredictor fe(BranchPredictorParams{});
    EXPECT_FALSE(
        fe.predict(makeInstr(0x100, OpClass::Trap, true, 0x7000)));
    EXPECT_FALSE(
        fe.predict(makeInstr(0x100, OpClass::Trap, true, 0x7000)));
    EXPECT_EQ(fe.mispredicts.value(), 2u);
}

TEST(Tlb, HitAfterFill)
{
    TlbParams p;
    Tlb tlb(p);
    EXPECT_EQ(tlb.translate(0x10000), p.walkPenalty); // cold: walk
    EXPECT_EQ(tlb.translate(0x10000), 0u); // now hits
    EXPECT_EQ(tlb.translate(0x11000), 0u); // same 8KB page
}

TEST(Tlb, SecondLevelCatchesL1Misses)
{
    TlbParams p;
    p.l1Entries = 4;
    p.l1Assoc = 2;
    p.l2Entries = 512;
    p.l2Assoc = 4;
    Tlb tlb(p);
    // Touch many pages: first pass all walks.
    for (Addr a = 0; a < 64; ++a)
        EXPECT_EQ(tlb.translate(a * 8192), p.walkPenalty);
    // Second pass: L1 TLB (4 entries) misses, but the 512-entry L2
    // TLB holds everything: penalties are l2HitPenalty, no walks.
    for (Addr a = 0; a < 64; ++a) {
        Cycle pen = tlb.translate(a * 8192);
        EXPECT_LE(pen, p.l2HitPenalty);
    }
}

namespace
{

/** Build a core over a record vector with a private hierarchy. */
struct CoreHarness
{
    explicit CoreHarness(std::vector<InstrRecord> recs,
                         HierarchyParams hp = HierarchyParams{})
        : hierarchy(hp),
          engine(PrefetchConfig{}, 0, hierarchy),
          source(std::move(recs)),
          core(0, CoreParams{}, hierarchy, engine, &source)
    {}

    /** Run until the core drains; @return cycles taken. */
    Cycle
    run(Cycle max_cycles = 1'000'000)
    {
        Cycle now = 0;
        while (!core.done() && now < max_cycles)
            core.tick(now++);
        return now;
    }

    CacheHierarchy hierarchy;
    PrefetchEngine engine;
    VectorTraceSource source;
    OoOCore core;
};

std::vector<InstrRecord>
linearAlu(int n, Addr base = 0x10000000)
{
    std::vector<InstrRecord> v;
    for (int i = 0; i < n; ++i) {
        InstrRecord r = makeInstr(base + 4u * i, OpClass::IntAlu);
        r.dstReg = static_cast<std::uint8_t>(1 + (i % 30));
        v.push_back(r);
    }
    return v;
}

HierarchyParams
zeroLatency()
{
    HierarchyParams p;
    p.makeFunctional();
    return p;
}

} // namespace

TEST(OoOCore, CommitsEverything)
{
    CoreHarness h(linearAlu(1000));
    h.run();
    EXPECT_TRUE(h.core.done());
    EXPECT_EQ(h.core.committed(), 1000u);
}

TEST(OoOCore, IpcBoundedByIssueWidth)
{
    // Zero-latency hierarchy isolates the core's structural limits.
    CoreHarness h(linearAlu(30000), zeroLatency());
    Cycle cycles = h.run();
    double ipc = 30000.0 / static_cast<double>(cycles);
    EXPECT_LE(ipc, 3.01); // 3-wide issue
    // Independent ALU stream in warm caches should get close to it.
    EXPECT_GT(ipc, 2.0);
}

TEST(OoOCore, DependentChainSerializes)
{
    // Every instruction depends on the previous one's result.
    std::vector<InstrRecord> v;
    for (int i = 0; i < 10000; ++i) {
        InstrRecord r =
            makeInstr(0x10000000 + 4u * i, OpClass::IntAlu);
        r.dstReg = 5;
        r.srcReg[0] = 5;
        v.push_back(r);
    }
    CoreHarness h(std::move(v), zeroLatency());
    Cycle cycles = h.run();
    double ipc = 10000.0 / static_cast<double>(cycles);
    EXPECT_LT(ipc, 1.05);
    EXPECT_GT(ipc, 0.8);
}

TEST(OoOCore, LoadMissesSlowExecution)
{
    // All loads share one code line so instruction fetch is free and
    // the data path dominates the comparison.
    std::vector<InstrRecord> hits, misses;
    for (int i = 0; i < 3000; ++i) {
        InstrRecord r = makeInstr(0x10000000, OpClass::Load);
        r.dstReg = static_cast<std::uint8_t>(1 + (i % 30));
        r.dataAddr = 0x2000000000ULL; // same line: hits after first
        hits.push_back(r);
        r.dataAddr = 0x2000000000ULL +
                     static_cast<Addr>(i) * 64 * 131; // conflict+cold
        misses.push_back(r);
    }
    CoreHarness a(std::move(hits));
    CoreHarness b(std::move(misses));
    Cycle fast = a.run();
    Cycle slow = b.run(10'000'000);
    EXPECT_GT(slow, fast * 5);
}

TEST(OoOCore, MispredictsCostCycles)
{
    // Alternating taken/not-taken pattern... use indirect jumps with
    // changing targets: always mispredicted.
    std::vector<InstrRecord> bad, good;
    Addr pc = 0x10000000;
    for (int i = 0; i < 2000; ++i) {
        // good: direct calls (never mispredict), matched returns
        InstrRecord c = makeInstr(pc, OpClass::Call, true, pc + 64);
        InstrRecord r =
            makeInstr(pc + 64, OpClass::Return, true, pc + 4);
        InstrRecord f = makeInstr(pc + 4, OpClass::IntAlu);
        good.push_back(c);
        good.push_back(r);
        good.push_back(f);
        // bad: indirect jumps alternating between two targets
        Addr t = (i % 2) ? pc + 64 : pc + 128;
        InstrRecord j = makeInstr(pc, OpClass::Jump, true, t);
        InstrRecord r2 = makeInstr(t, OpClass::Return, true, pc + 4);
        bad.push_back(j);
        bad.push_back(r2);
        bad.push_back(f);
    }
    CoreHarness g(std::move(good));
    CoreHarness b(std::move(bad));
    Cycle gc = g.run();
    Cycle bc = b.run();
    EXPECT_GT(bc, gc + 2000 * 8); // at least the redirect penalty each
}

TEST(OoOCore, FetchStallsOnInstructionMiss)
{
    // Jump across 1000 distinct lines: every line is an I$ miss to
    // memory; the run must cost at least ~400 cycles per line.
    std::vector<InstrRecord> v;
    Addr pc = 0x10000000;
    for (int i = 0; i < 1000; ++i) {
        Addr next = pc + 64 * 17; // distinct lines, conflict-heavy
        v.push_back(makeInstr(pc, OpClass::UncondBranch, true, next));
        pc = next;
    }
    CoreHarness h(std::move(v));
    Cycle cycles = h.run(10'000'000);
    EXPECT_GT(cycles, 300'000u);
    EXPECT_GT(h.core.fetchStallCycles.value(), 250'000u);
}

TEST(OoOCore, StoresDoNotStall)
{
    std::vector<InstrRecord> v;
    for (int i = 0; i < 3000; ++i) {
        InstrRecord r =
            makeInstr(0x10000000 + 4u * i, OpClass::Store);
        r.dataAddr =
            0x2000000000ULL + static_cast<Addr>(i) * 64 * 131;
        v.push_back(r);
    }
    CoreHarness h(std::move(v), zeroLatency());
    Cycle cycles = h.run();
    double ipc = 3000.0 / static_cast<double>(cycles);
    EXPECT_GT(ipc, 1.5); // store buffer hides miss latency
}
