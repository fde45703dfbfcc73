/**
 * @file
 * Tests for the synthetic workload generator: CFG structural
 * invariants, stream consistency (the PC chain property), determinism
 * and statistical shape, and the batch walker diffed record by record
 * against the scalar reference walker.
 */

#include <gtest/gtest.h>

#include "error_helpers.hh"
#include "reference_workload.hh"

#include <set>
#include <unordered_set>

#include "trace/trace_stats.hh"
#include "workload/presets.hh"

using namespace ipref;

namespace
{

std::shared_ptr<const ProgramCfg>
smallProgram()
{
    WorkloadConfig cfg;
    cfg.name = "tiny";
    cfg.layoutSeed = 99;
    cfg.codeFootprintBytes = 256u << 10;
    cfg.concurrentContexts = 2;
    cfg.contextSwitchPeriod = 500;
    static std::shared_ptr<const ProgramCfg> prog =
        std::make_shared<const ProgramCfg>(cfg);
    return prog;
}

} // namespace

TEST(Cfg, StructuralInvariants)
{
    auto prog = smallProgram();
    const auto &funcs = prog->functions();
    const auto &blocks = prog->blocks();
    ASSERT_GT(funcs.size(), 16u);

    for (const auto &fn : funcs) {
        ASSERT_GE(fn.numBlocks, 1u);
        // Entry is the first block's address, function-aligned.
        EXPECT_EQ(fn.entry, blocks[fn.firstBlock].startPc);
        EXPECT_EQ(fn.entry % 32, 0u);
        // Blocks are contiguous in memory.
        for (std::uint32_t b = 0; b + 1 < fn.numBlocks; ++b) {
            const BasicBlock &cur = blocks[fn.firstBlock + b];
            const BasicBlock &nxt = blocks[fn.firstBlock + b + 1];
            EXPECT_EQ(cur.endPc(), nxt.startPc);
        }
        // The last block returns (except the dispatcher's loop).
        const BasicBlock &last =
            blocks[fn.firstBlock + fn.numBlocks - 1];
        if (&fn != &funcs[0]) {
            EXPECT_EQ(last.term, TermKind::Return);
        }
        // Branch targets stay inside the function.
        for (std::uint32_t b = 0; b < fn.numBlocks; ++b) {
            const BasicBlock &bb = blocks[fn.firstBlock + b];
            if (bb.term == TermKind::CondBranch ||
                (bb.term == TermKind::UncondBranch &&
                 !bb.isTailCall && &fn != &funcs[0])) {
                EXPECT_GE(bb.targetBlock, fn.firstBlock);
                EXPECT_LT(bb.targetBlock,
                          fn.firstBlock + fn.numBlocks);
            }
            if (bb.term == TermKind::Call ||
                (bb.term == TermKind::UncondBranch && bb.isTailCall)) {
                EXPECT_LT(bb.targetFunc, funcs.size());
            }
        }
    }
}

TEST(Cfg, TrapHandlersAreLeaves)
{
    auto prog = smallProgram();
    const auto &blocks = prog->blocks();
    for (std::uint32_t ti : prog->trapFuncs()) {
        const Function &fn = prog->functions()[ti];
        EXPECT_TRUE(fn.isTrapHandler);
        for (std::uint32_t b = 0; b < fn.numBlocks; ++b) {
            TermKind t = blocks[fn.firstBlock + b].term;
            EXPECT_NE(t, TermKind::Call);
            EXPECT_NE(t, TermKind::IndirectCall);
        }
    }
}

TEST(Cfg, FunctionsDoNotOverlap)
{
    auto prog = smallProgram();
    std::vector<std::pair<Addr, Addr>> ranges;
    const auto &blocks = prog->blocks();
    for (const auto &fn : prog->functions()) {
        Addr lo = fn.entry;
        Addr hi =
            blocks[fn.firstBlock + fn.numBlocks - 1].endPc();
        ranges.push_back({lo, hi});
    }
    std::sort(ranges.begin(), ranges.end());
    for (std::size_t i = 0; i + 1 < ranges.size(); ++i)
        EXPECT_LE(ranges[i].second, ranges[i + 1].first);
}

TEST(Cfg, RootCdfIsMonotoneAndComplete)
{
    auto prog = smallProgram();
    const auto &cdf = prog->rootCdf();
    ASSERT_FALSE(cdf.empty());
    for (std::size_t i = 1; i < cdf.size(); ++i)
        EXPECT_GE(cdf[i], cdf[i - 1]);
    EXPECT_DOUBLE_EQ(cdf.back(), 1.0);
}

TEST(Workload, PcChainConsistency)
{
    // The defining stream property: every instruction's address is
    // the previous instruction's nextPc(). Traps and context
    // switches must preserve it too.
    Workload wl(smallProgram(), 1234);
    InstrRecord prev, cur;
    ASSERT_TRUE(wl.next(prev));
    for (int i = 0; i < 200000; ++i) {
        ASSERT_TRUE(wl.next(cur));
        ASSERT_EQ(cur.pc, prev.nextPc())
            << "broken chain at instruction " << i;
        prev = cur;
    }
}

TEST(Workload, DeterministicForSeed)
{
    Workload a(smallProgram(), 77);
    Workload b(smallProgram(), 77);
    InstrRecord ra, rb;
    for (int i = 0; i < 20000; ++i) {
        ASSERT_TRUE(a.next(ra));
        ASSERT_TRUE(b.next(rb));
        ASSERT_EQ(ra.pc, rb.pc);
        ASSERT_EQ(ra.dataAddr, rb.dataAddr);
        ASSERT_EQ(static_cast<int>(ra.op), static_cast<int>(rb.op));
    }
}

TEST(Workload, ResetReproducesStream)
{
    Workload wl(smallProgram(), 42);
    std::vector<Addr> first;
    InstrRecord r;
    for (int i = 0; i < 5000; ++i) {
        wl.next(r);
        first.push_back(r.pc);
    }
    wl.reset();
    for (int i = 0; i < 5000; ++i) {
        wl.next(r);
        ASSERT_EQ(r.pc, first[i]);
    }
}

TEST(Workload, SeedsDiverge)
{
    Workload a(smallProgram(), 1);
    Workload b(smallProgram(), 2);
    InstrRecord ra, rb;
    int same = 0;
    for (int i = 0; i < 10000; ++i) {
        a.next(ra);
        b.next(rb);
        same += ra.pc == rb.pc;
    }
    EXPECT_LT(same, 9000);
}

TEST(Workload, MakesProgress)
{
    Workload wl(smallProgram(), 5);
    InstrRecord r;
    for (int i = 0; i < 300000; ++i)
        wl.next(r);
    EXPECT_GT(wl.transactionsCompleted(), 10u);
    EXPECT_GT(wl.contextSwitches(), 100u);
    EXPECT_EQ(wl.instructionsEmitted(), 300000u);
}

TEST(Workload, CodeAddressesWithinFootprint)
{
    auto prog = smallProgram();
    Workload wl(prog, 6);
    const WorkloadConfig &cfg = prog->config();
    InstrRecord r;
    for (int i = 0; i < 100000; ++i) {
        wl.next(r);
        EXPECT_GE(r.pc, cfg.codeBase);
        EXPECT_LT(r.pc, cfg.codeBase + prog->codeBytes());
    }
}

TEST(Workload, DataAddressesInDataSegment)
{
    auto prog = smallProgram();
    Workload wl(prog, 7, /*dataOffset=*/0x10000000);
    const WorkloadConfig &cfg = prog->config();
    InstrRecord r;
    int mem_ops = 0;
    for (int i = 0; i < 100000; ++i) {
        wl.next(r);
        if (!r.isMem())
            continue;
        ++mem_ops;
        EXPECT_GE(r.dataAddr, cfg.dataBase + 0x10000000);
        EXPECT_EQ(r.dataAddr % 4, 0u);
    }
    EXPECT_GT(mem_ops, 20000);
}

TEST(Workload, DisjointDataSegmentsPerCore)
{
    auto w0 = makeWorkload(WorkloadKind::WEB, 0);
    auto w1 = makeWorkload(WorkloadKind::WEB, 1);
    std::unordered_set<Addr> lines0;
    InstrRecord r;
    for (int i = 0; i < 50000; ++i) {
        w0->next(r);
        if (r.isMem())
            lines0.insert(r.dataAddr >> 6);
    }
    for (int i = 0; i < 50000; ++i) {
        w1->next(r);
        if (r.isMem()) {
            EXPECT_EQ(lines0.count(r.dataAddr >> 6), 0u);
        }
    }
}

TEST(Workload, SharedCodeAcrossCores)
{
    // Same application on two cores shares the program text.
    auto w0 = makeWorkload(WorkloadKind::WEB, 0);
    auto w1 = makeWorkload(WorkloadKind::WEB, 1);
    EXPECT_EQ(&w0->program(), &w1->program());
}

TEST(Workload, InstructionMixMatchesConfig)
{
    auto prog = smallProgram();
    Workload wl(prog, 9);
    TraceSummary s = summarizeTrace(wl, 300000);
    double loads = s.opFraction(OpClass::Load);
    double stores = s.opFraction(OpClass::Store);
    // Terminator slots dilute the static mix slightly.
    EXPECT_NEAR(loads, prog->config().loadFraction, 0.06);
    EXPECT_NEAR(stores, prog->config().storeFraction, 0.04);
    EXPECT_GT(s.opFraction(OpClass::CondBranch), 0.02);
    EXPECT_GT(s.opFraction(OpClass::Call) +
                  s.opFraction(OpClass::Jump),
              0.005);
}

TEST(Workload, TrapsAreRare)
{
    auto prog = smallProgram();
    Workload wl(prog, 10);
    TraceSummary s = summarizeTrace(wl, 400000);
    double traps = s.opFraction(OpClass::Trap);
    // switches (1/500) dominate the plain trap rate here
    EXPECT_GT(traps, 0.0005);
    EXPECT_LT(traps, 0.01);
}

TEST(Presets, AllBuildAndRun)
{
    for (WorkloadKind kind : allWorkloadKinds()) {
        auto wl = makeWorkload(kind, 0);
        InstrRecord r;
        for (int i = 0; i < 1000; ++i)
            ASSERT_TRUE(wl->next(r));
    }
}

TEST(Presets, NamesRoundTrip)
{
    EXPECT_EQ(parseWorkloadKind("db"), WorkloadKind::DB);
    EXPECT_EQ(parseWorkloadKind("TPC-W"), WorkloadKind::TPCW);
    EXPECT_EQ(parseWorkloadKind("jApp"), WorkloadKind::JAPP);
    EXPECT_EQ(parseWorkloadKind("SPECweb99"), WorkloadKind::WEB);
    EXPECT_STREQ(workloadName(WorkloadKind::TPCW), "TPC-W");
}

TEST(Presets, UnknownNameThrows)
{
    test::expectThrows<ConfigError>(
        [] { parseWorkloadKind("quake3"); }, "unknown workload");
}

TEST(Presets, ProgramsAreMemoized)
{
    auto a = buildProgram(WorkloadKind::DB);
    auto b = buildProgram(WorkloadKind::DB);
    EXPECT_EQ(a.get(), b.get());
}

TEST(Presets, DistinctAddressSpaces)
{
    // Different applications occupy different code regions so the
    // CMP "Mix" does not alias.
    std::set<Addr> bases;
    for (WorkloadKind kind : allWorkloadKinds())
        bases.insert(presetConfig(kind).codeBase);
    EXPECT_EQ(bases.size(), allWorkloadKinds().size());
}

namespace
{

/** A program whose walk is dense in asynchronous events: traps and
 *  switches fire every few dozen records, so they land mid-block, on
 *  terminators and right after handler returns, and batch boundaries
 *  fall inside handlers. It also has a warm data set, which the
 *  presets leave empty. */
std::shared_ptr<const ProgramCfg>
stormProgram()
{
    WorkloadConfig cfg;
    cfg.name = "storm";
    cfg.layoutSeed = 4242;
    cfg.codeFootprintBytes = 192u << 10;
    cfg.concurrentContexts = 3;
    cfg.contextSwitchPeriod = 60;
    cfg.trapProbability = 0.02;
    cfg.blockCountP = 0.5;        // short handlers: events stay dense
    cfg.loopBackFraction = 0.05;
    cfg.hotDataBytes = 256u << 10;
    cfg.warmDataBytes = 64u << 10;
    cfg.hotAccessFraction = 0.6;
    cfg.warmAccessFraction = 0.15;
    static std::shared_ptr<const ProgramCfg> prog =
        std::make_shared<const ProgramCfg>(cfg);
    return prog;
}

/**
 * Pull @p total records from @p wl in pulls of @p batch (0: one
 * next() call per record) and diff every field against @p ref, then
 * the walk counters.
 */
void
diffAgainstReference(Workload &wl, test::ReferenceWorkload &ref,
                     std::size_t batch, std::size_t total)
{
    std::vector<InstrRecord> buf(std::max<std::size_t>(batch, 1));
    std::size_t done = 0;
    for (; done < total; done += buf.size()) {
        if (batch == 0)
            ASSERT_TRUE(wl.next(buf[0]));
        else
            ASSERT_EQ(wl.nextBatch(buf), buf.size());
        for (std::size_t i = 0; i < buf.size(); ++i) {
            const InstrRecord want = ref.next();
            const InstrRecord &got = buf[i];
            const std::size_t at = done + i;
            ASSERT_EQ(got.pc, want.pc) << "record " << at;
            ASSERT_EQ(got.target, want.target) << "record " << at;
            ASSERT_EQ(got.dataAddr, want.dataAddr) << "record " << at;
            ASSERT_EQ(got.op, want.op) << "record " << at;
            ASSERT_EQ(got.taken, want.taken) << "record " << at;
            ASSERT_EQ(got.srcReg[0], want.srcReg[0]) << "record " << at;
            ASSERT_EQ(got.srcReg[1], want.srcReg[1]) << "record " << at;
            ASSERT_EQ(got.dstReg, want.dstReg) << "record " << at;
        }
    }
    EXPECT_EQ(wl.instructionsEmitted(), done);
    EXPECT_EQ(wl.transactionsCompleted(), ref.transactions);
    EXPECT_EQ(wl.contextSwitches(), ref.switches);
}

constexpr std::size_t kPulls[] = {0, 1, 7, 512, 4096};

} // namespace

// The batch walker against the frozen scalar walker on the four
// presets, several seeds and per-core data segments, for every pull
// size: every field of every record, and the walk counters.
TEST(WorkloadTwin, PresetsMatchReference)
{
    for (WorkloadKind kind : allWorkloadKinds()) {
        auto prog = buildProgram(kind);
        for (std::uint64_t seed : {1ull, 0x5eedull}) {
            for (CoreId core : {0u, 3u}) {
                const Addr offset = static_cast<Addr>(core) << 28;
                for (std::size_t pull : kPulls) {
                    SCOPED_TRACE(testing::Message()
                                 << workloadName(kind) << " seed "
                                 << seed << " core " << core
                                 << " pull " << pull);
                    Workload wl(prog, seed, offset);
                    test::ReferenceWorkload ref(prog, seed, offset);
                    diffAgainstReference(wl, ref, pull, 3 * 4096);
                }
            }
        }
    }
}

TEST(WorkloadTwin, AsyncStormMatchesReference)
{
    auto prog = stormProgram();
    for (std::uint64_t seed : {3ull, 11ull, 977ull}) {
        for (std::size_t pull : kPulls) {
            SCOPED_TRACE(testing::Message()
                         << "seed " << seed << " pull " << pull);
            Workload wl(prog, seed, 0x4000000);
            test::ReferenceWorkload ref(prog, seed, 0x4000000);
            diffAgainstReference(wl, ref, pull, 25 * 4096);
        }
    }
}

// The storm config really puts events where the batch walker has
// seams: traps taken mid-block, before a terminator and at a block's
// first slot, and 7-record pulls that end inside a handler.
TEST(WorkloadTwin, AsyncStormCoversBlockSeams)
{
    auto prog = stormProgram();
    std::unordered_set<Addr> starts, terms;
    for (const BasicBlock &bb : prog->blocks()) {
        starts.insert(bb.startPc);
        if (bb.term != TermKind::FallThrough)
            terms.insert(bb.termPc());
    }
    test::ReferenceWorkload ref(prog, 3, 0);
    int midBlock = 0, atTerm = 0, atStart = 0, pullEndsInHandler = 0;
    bool inHandler = false;
    for (std::size_t i = 0; i < 100000; ++i) {
        const InstrRecord r = ref.next();
        if (r.op == OpClass::Trap) {
            inHandler = true;
            if (terms.count(r.pc))
                ++atTerm;
            else if (starts.count(r.pc))
                ++atStart;
            else
                ++midBlock;
        } else if (r.op == OpClass::Return) {
            inHandler = false; // handlers are leaves: this is theirs
        }
        if (inHandler && i % 7 == 6)
            ++pullEndsInHandler;
    }
    EXPECT_GT(midBlock, 100);
    EXPECT_GT(atTerm, 100);
    EXPECT_GT(atStart, 100);
    EXPECT_GT(pullEndsInHandler, 100);
}
