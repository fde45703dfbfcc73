/**
 * @file
 * The event-driven timing loop must be an observational no-op. A
 * naive reference loop assembles the same chip from the public
 * constructors and ticks every core every cycle (checking samples and
 * time slices at every cycle boundary); System::run, which skips idle
 * cores and charges their cycles lazily, must match it field by field:
 * SimResults, interval samples, the full stats tree (ROB-full and
 * stall counters included), and the event trace, whose fetch_stall
 * episodes must also re-sum to the CPI stack. The matrix covers
 * DB/Web/Mixed, four schemes, 1 core, 4 cores and the time-sliced
 * single core, with and without a RunControl and interval sampling.
 * Also pins the exact work counter: ticks per core cycle.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "sim/campaign.hh"
#include "sim/experiment.hh"
#include "util/json.hh"
#include "util/trace_event.hh"

using namespace ipref;

namespace
{

constexpr std::uint64_t kInterval = 7'000;
constexpr std::uint64_t kSlice = 5'000;
constexpr std::size_t kTraceCapacity = 1u << 19;

/**
 * Cycle-at-a-time reference: every core ticks every cycle, in core
 * order, and the sample / slice checks run at every cycle boundary.
 */
class ReferenceLoop
{
  public:
    explicit ReferenceLoop(const SystemConfig &config) : cfg_(config)
    {
        cfg_.hierarchy.numCores = cfg_.numCores;
        cfg_.prefetch.lineBytes = cfg_.hierarchy.l1i.lineBytes;
        hier_ = std::make_unique<CacheHierarchy>(cfg_.hierarchy);

        sliced_ = cfg_.numCores == 1 && cfg_.workloads.size() > 1;
        const std::size_t walkers =
            sliced_ ? cfg_.workloads.size() : cfg_.numCores;
        for (std::size_t i = 0; i < walkers; ++i) {
            WorkloadKind kind = cfg_.workloads.size() == 1
                                    ? cfg_.workloads[0]
                                    : cfg_.workloads[i];
            walkers_.push_back(makeWorkload(
                kind, static_cast<CoreId>(i), cfg_.baseSeed));
        }
        for (unsigned c = 0; c < cfg_.numCores; ++c)
            engines_.push_back(std::make_unique<PrefetchEngine>(
                cfg_.prefetch, c, *hier_));
        CoreParams cp = cfg_.core;
        cp.fetchBlockRecords =
            sliced_ ? 1u : std::max(1u, cfg_.core.fetchBlockRecords);
        for (unsigned c = 0; c < cfg_.numCores; ++c)
            cores_.push_back(std::make_unique<OoOCore>(
                c, cp, *hier_, *engines_[c], walkers_[c].get()));

        auto hier = std::make_unique<StatGroup>("hierarchy");
        hier_->registerStats(*hier);
        hier_->memory().registerStats(*hier);
        groups_.push_back(std::move(hier));
        for (unsigned c = 0; c < cfg_.numCores; ++c) {
            groups_.push_back(std::make_unique<StatGroup>(
                "prefetch." + std::to_string(c)));
            engines_[c]->registerStats(*groups_.back());
        }
        for (unsigned c = 0; c < cfg_.numCores; ++c) {
            groups_.push_back(std::make_unique<StatGroup>(
                "core." + std::to_string(c)));
            cores_[c]->registerStats(*groups_.back());
        }
        for (auto &g : groups_)
            root_.addChild(g.get());
        if (cfg_.traceCapacity > 0)
            sink_.enable(cfg_.traceCapacity);
    }

    SimResults
    run()
    {
        TraceSinkScope scope(sink_.enabled() ? &sink_ : nullptr);
        if (cfg_.warmupInstrs > 0)
            loop(progress() + cfg_.warmupInstrs);

        root_.resetAll();
        if (sink_.enabled())
            sink_.clear();
        instrBase_ = progress();
        cycleBase_ = now_;
        sliceStart_ = cores_[0]->committed();
        for (auto &core : cores_)
            core->onMeasureBegin();
        nextSampleAt_ = cfg_.statsIntervalInstrs > 0
                            ? instrBase_ + cfg_.statsIntervalInstrs
                            : 0;

        loop(progress() + cfg_.measureInstrs);
        for (auto &core : cores_)
            core->finishAccounting(now_);
        SimResults r = collect();
        r.ipc = ipcOf(r);
        if (cfg_.statsIntervalInstrs > 0 &&
            (samples_.empty() ||
             lastSample_.instructions < r.instructions))
            pushSample(r);
        return r;
    }

    const std::vector<IntervalSample> &samples() const
    {
        return samples_;
    }
    const TraceSink &sink() const { return sink_; }
    Cycle now() const { return now_; }

    std::string
    statsText() const
    {
        std::ostringstream os;
        root_.dump(os);
        return os.str();
    }

  private:
    static double
    ipcOf(const SimResults &r)
    {
        return r.cycles ? static_cast<double>(r.instructions) /
                              static_cast<double>(r.cycles)
                        : 0.0;
    }

    std::uint64_t
    progress() const
    {
        std::uint64_t total = 0;
        for (const auto &core : cores_)
            total += core->committed();
        return total;
    }

    void
    pushSample(const SimResults &cur)
    {
        IntervalSample s;
        s.endInstructions = cur.instructions;
        s.delta = SimResults::delta(cur, lastSample_);
        s.delta.ipc = ipcOf(s.delta);
        samples_.push_back(s);
        lastSample_ = cur;
    }

    void
    loop(std::uint64_t target)
    {
        while (progress() < target) {
            while (nextSampleAt_ > 0 && progress() >= nextSampleAt_) {
                pushSample(collect());
                nextSampleAt_ += cfg_.statsIntervalInstrs;
            }
            for (auto &core : cores_)
                core->tick(now_);
            ++now_;
            if (sliced_) {
                std::uint64_t done = cores_[0]->committed();
                if (done - sliceStart_ >= cfg_.timeSliceInstrs) {
                    active_ = (active_ + 1) % walkers_.size();
                    cores_[0]->setTrace(walkers_[active_].get());
                    sliceStart_ = done;
                }
            }
        }
    }

    SimResults
    collect() const
    {
        SimResults r;
        r.instructions = progress() - instrBase_;
        r.cycles = now_ - cycleBase_;
        const CacheHierarchy &h = *hier_;
        r.fetchLineAccesses = h.fetchLineAccesses.value();
        r.l1iMisses = h.l1iMisses.value();
        r.l1iEliminated = h.l1iEliminated.value();
        r.l1iFirstUseHits = h.l1iFirstUseHits.value();
        r.l1iLateHits = h.l1iLateHits.value();
        r.l2iMisses = h.l2iMisses.value();
        r.l1dAccesses = h.l1dAccesses.value();
        r.l1dMisses = h.l1dMisses.value();
        r.l2dMisses = h.l2dMisses.value();
        for (std::size_t i = 0; i < r.l1iMissByTransition.size(); ++i) {
            r.l1iMissByTransition[i] = h.l1iMissByTransition[i].value();
            r.l2iMissByTransition[i] = h.l2iMissByTransition[i].value();
        }
        r.bypassInstalls = h.bypassInstalls.value();
        r.bypassDrops = h.bypassDrops.value();
        for (const auto &e : engines_) {
            r.pfCandidates += e->candidates.value();
            r.pfIssued += e->issued.value();
            r.pfIssuedOffChip += e->issuedOffChip.value();
            r.pfUseful += e->usefulPrefetches.value();
            r.pfLate += e->latePrefetches.value();
            r.pfUseless += e->uselessPrefetches.value();
            r.pfFiltered += e->filteredRecent.value();
            r.pfTagProbes += e->tagProbes.value();
            r.pfTagProbeHits += e->tagProbeHits.value();
            for (std::size_t i = 0; i < r.pfIssuedByOrigin.size(); ++i) {
                r.pfIssuedByOrigin[i] += e->issuedByOrigin[i].value();
                r.pfUsefulByOrigin[i] += e->usefulByOrigin[i].value();
            }
            MetadataCost meta = e->metadataCost();
            r.pfMetaEntries += meta.entries;
            r.pfMetaBytes += meta.bytes;
            r.pfMetaOffChipReads += meta.offChipReads;
            r.pfMetaOffChipWrites += meta.offChipWrites;
        }
        MemoryChannel &mem = hier_->memory();
        r.memReads = mem.reads.value();
        r.memPrefetchReads = mem.prefetchReads.value();
        r.memWrites = mem.writes.value();
        r.memQueueDelayCycles = mem.queueDelayCycles.value();
        for (const auto &core : cores_) {
            r.branchCtis += core->predictor().ctis.value();
            r.branchMispredicts += core->predictor().mispredicts.value();
            for (std::size_t i = 0; i < kNumCycleBuckets; ++i)
                r.cpiStack[i] +=
                    core->ledger().value(static_cast<CycleBucket>(i));
        }
        return r;
    }

    SystemConfig cfg_;
    std::unique_ptr<CacheHierarchy> hier_;
    std::vector<std::unique_ptr<Workload>> walkers_;
    std::vector<std::unique_ptr<PrefetchEngine>> engines_;
    std::vector<std::unique_ptr<OoOCore>> cores_;
    StatGroup root_{"system"};
    std::vector<std::unique_ptr<StatGroup>> groups_;
    TraceSink sink_;
    bool sliced_ = false;
    std::size_t active_ = 0;
    std::uint64_t sliceStart_ = 0;
    Cycle now_ = 0;
    std::uint64_t instrBase_ = 0;
    Cycle cycleBase_ = 0;
    std::uint64_t nextSampleAt_ = 0;
    std::vector<IntervalSample> samples_;
    SimResults lastSample_;
};

std::string
traceText(const TraceSink &sink)
{
    std::ostringstream os;
    sink.writeJsonLines(os);
    return os.str();
}

/** fetch_stall episode cycles per bucket, re-summed from the trace. */
std::array<std::uint64_t, kNumCycleBuckets>
stallResum(const TraceSink &sink)
{
    std::array<std::uint64_t, kNumCycleBuckets> sum{};
    for (const TraceEvent &e : sink.snapshot())
        if (e.type == TraceEventType::FetchStall)
            sum[e.detail] += e.arg;
    return sum;
}

struct Cell
{
    const char *name;
    std::vector<WorkloadKind> workloads;
    bool cmp;
};

std::vector<Cell>
cells()
{
    return {
        {"DB-1", {WorkloadKind::DB}, false},
        {"DB-4", {WorkloadKind::DB}, true},
        {"Web-1", {WorkloadKind::WEB}, false},
        {"Web-4", {WorkloadKind::WEB}, true},
        {"Mixed-4", allWorkloadKinds(), true},
        {"Mixed-sliced", allWorkloadKinds(), false},
    };
}

RunSpec
specFor(const Cell &cell, const std::string &scheme)
{
    RunSpec::Builder b = RunSpec::builder()
                             .workloads(cell.workloads)
                             .cmp(cell.cmp)
                             .scheme(scheme)
                             .instrScale(0.02);
    if (scheme == "discontinuity")
        b.bypassL2();
    return b.build();
}

void
expectSamplesEqual(const std::vector<IntervalSample> &got,
                   const std::vector<IntervalSample> &want,
                   const std::string &where)
{
    ASSERT_EQ(got.size(), want.size()) << where;
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].endInstructions, want[i].endInstructions)
            << where << " sample " << i;
        EXPECT_EQ(resultsToJson(got[i].delta),
                  resultsToJson(want[i].delta))
            << where << " sample " << i;
        EXPECT_EQ(got[i].delta.cpiStack, want[i].delta.cpiStack)
            << where << " sample " << i;
    }
}

} // namespace

TEST(EventLoop, MatchesCycleAtATimeReference)
{
    const char *schemes[] = {"none", "discontinuity", "n4l", "domino"};
    for (const Cell &cell : cells()) {
        for (const char *scheme : schemes) {
            SystemConfig cfg = makeConfig(specFor(cell, scheme));
            cfg.timeSliceInstrs = kSlice;
            cfg.statsIntervalInstrs = kInterval;
            if (IPREF_TRACE_EVENTS)
                cfg.traceCapacity = kTraceCapacity;

            ReferenceLoop ref(cfg);
            const SimResults want = ref.run();
            const std::string wantJson = resultsToJson(want);
            const std::string wantStats = ref.statsText();
            const std::string wantTrace = traceText(ref.sink());
            ASSERT_EQ(ref.sink().dropped(), 0u);
            ASSERT_GE(ref.samples().size(), 3u);

            for (bool control : {false, true}) {
                for (bool sampling : {false, true}) {
                    const std::string where =
                        std::string(cell.name) + " " + scheme +
                        (control ? " control" : "") +
                        (sampling ? " sampling" : "");
                    SystemConfig c = cfg;
                    if (control)
                        c.control = std::make_shared<RunControl>();
                    if (!sampling)
                        c.statsIntervalInstrs = 0;
                    System sys(c);
                    SimResults got = sys.run();
                    EXPECT_EQ(resultsToJson(got), wantJson) << where;
                    EXPECT_EQ(got.cpiStack, want.cpiStack) << where;
                    EXPECT_DOUBLE_EQ(got.ipc, want.ipc) << where;
                    std::ostringstream stats;
                    sys.dumpStats(stats);
                    EXPECT_EQ(stats.str(), wantStats) << where;
                    if (sampling)
                        expectSamplesEqual(sys.samples(), ref.samples(),
                                           where);
                    else
                        EXPECT_TRUE(sys.samples().empty()) << where;

                    // The event loop never ticks more than the
                    // reference, and simulates the same cycles.
                    const PhaseProfile &prof = sys.profile();
                    EXPECT_EQ(prof.coreCycles, ref.now() * c.numCores)
                        << where;
                    EXPECT_LE(prof.coreTicks, prof.coreCycles) << where;

                    if (!IPREF_TRACE_EVENTS)
                        continue;
                    ASSERT_NE(sys.traceSink(), nullptr);
                    EXPECT_EQ(traceText(*sys.traceSink()), wantTrace)
                        << where;
                    auto resum = stallResum(*sys.traceSink());
                    for (std::size_t b = 1; b < kNumCycleBuckets; ++b)
                        EXPECT_EQ(resum[b], got.cpiStack[b])
                            << where << " bucket "
                            << cycleBucketName(
                                   static_cast<CycleBucket>(b));
                }
            }
        }
    }
}

// The exact work counter: on the fetch-bound DB CMP without
// prefetching most core cycles are idle, so the event loop executes
// at most a quarter of the ticks the cycle-at-a-time loop would.
TEST(EventLoop, IdleCoresSleep)
{
    SystemConfig cfg = makeConfig(RunSpec::builder()
                                      .workload(WorkloadKind::DB)
                                      .cmp(true)
                                      .scheme("none")
                                      .instrScale(0.1)
                                      .build());
    System sys(cfg);
    SimResults r = sys.run();
    const PhaseProfile &prof = sys.profile();
    ASSERT_GT(prof.coreCycles, 0u);
    EXPECT_GE(prof.coreCycles, r.cycles * cfg.numCores);
    EXPECT_GT(prof.coreTicks, 0u);
    EXPECT_LE(prof.ticksPerCoreCycle(), 0.25);

    std::ostringstream os;
    sys.dumpJson(os);
    JsonValue profile = parseJson(os.str()).at("profile");
    EXPECT_NEAR(profile.numberOr("ticks_per_core_cycle", -1.0),
                prof.ticksPerCoreCycle(), 1e-9);
    EXPECT_EQ(profile.numberOr("core_ticks", -1.0),
              static_cast<double>(prof.coreTicks));
}

// Functional runs never tick a core, so the counter stays at zero.
TEST(EventLoop, FunctionalRunsReportNoTicks)
{
    SystemConfig cfg = makeConfig(RunSpec::builder()
                                      .workload(WorkloadKind::WEB)
                                      .cmp(true)
                                      .functional(true)
                                      .instrScale(0.01)
                                      .build());
    System sys(cfg);
    sys.run();
    EXPECT_EQ(sys.profile().coreTicks, 0u);
    EXPECT_EQ(sys.profile().coreCycles, 0u);
    EXPECT_EQ(sys.profile().ticksPerCoreCycle(), 0.0);
}
