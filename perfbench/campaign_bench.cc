/**
 * @file
 * Campaign benchmark: times figure-style campaigns through the public
 * entry point (RunSpec::Builder -> runBatch) and, in a separate traced
 * pass, splits host time across the simulator's layers by assembling
 * them from their public constructors and timing every call into them.
 *
 *   campaign_bench --workload timing|functional-sweep|trace-replay
 *                  --seed N --seconds S --trace 0|1 [--tiny]
 *
 * --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
 * metrics. The last stdout line is one JSON object; the process exits
 * non-zero when any run fails or any correctness check does not hold.
 * See README.md in this directory for the workloads and metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/hierarchy.hh"
#include "cpu/core.hh"
#include "prefetch/engine.hh"
#include "sim/campaign.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "trace/trace_cache.hh"
#include "trace/trace_file.hh"
#include "trace/trace_v3.hh"
#include "util/json.hh"
#include "util/stats.hh"
#include "workload/presets.hh"
#include "workload/workload.hh"

using namespace ipref;

namespace
{

using Clock = std::chrono::steady_clock;

/** Trace files and span dumps, inside the working directory. */
const std::string kOutDir = ".bench_out";

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- spans -------------------------------------------------------------

/** Every layer boundary the traced pass records a span at. */
enum class SpanName : std::uint8_t
{
    SystemBuild,
    Run,
    CpuTick,
    CacheFetch,
    CacheData,
    PfDemand,
    PfTick,
    WorkloadBatch,
    TraceBatch,
    TraceAcquire,
    TraceOpen,
    Count
};

constexpr std::size_t kNumSpans = static_cast<std::size_t>(SpanName::Count);

constexpr std::array<const char *, kNumSpans> kSpanNames = {
    "sim.system_build",    "sim.run",
    "cpu.tick",            "cache.fetch_access",
    "cache.data_access",   "prefetch.on_demand_fetch",
    "prefetch.tick",       "workload.next_batch",
    "trace.next_batch",    "trace.acquire",
    "trace.open",
};

constexpr std::size_t
idx(SpanName n)
{
    return static_cast<std::size_t>(n);
}

/**
 * In-memory span store: per-name and per-(parent, name) counts and
 * summed durations, plus a sampled ring of complete spans. Spans nest
 * strictly (one thread, RAII scopes), so a fixed stack tracks parents
 * and the time children cover.
 */
class SpanRecorder
{
  public:
    struct Totals
    {
        std::uint64_t count = 0;
        std::uint64_t ns = 0;      //!< summed durations
        std::uint64_t childNs = 0; //!< part covered by child spans
    };

    struct Sample
    {
        std::uint32_t request; //!< spec index: spans of one run share it
        SpanName name;
        std::uint8_t parent;   //!< SpanName index, kNumSpans = root
        std::uint64_t startNs;
        std::uint64_t endNs;
    };

    static constexpr std::size_t kRingCapacity = 4096;
    /** Record every 2^kSampleShift-th completed span in the ring. */
    static constexpr unsigned kSampleShift = 12;

    SpanRecorder() { ring_.reserve(kRingCapacity); }

    void setRequest(std::uint32_t r) { request_ = r; }

    void
    begin(SpanName n)
    {
        if (depth_ == stack_.size())
            throw std::logic_error("span stack overflow");
        stack_[depth_++] = {n, nowNs(), 0};
    }

    void
    end()
    {
        const Open o = stack_[--depth_];
        const std::uint64_t t = nowNs();
        const std::uint64_t d = t - o.startNs;
        Totals &tot = totals_[idx(o.name)];
        ++tot.count;
        tot.ns += d;
        tot.childNs += o.childNs;
        std::size_t parent = kNumSpans;
        if (depth_) {
            stack_[depth_ - 1].childNs += d;
            parent = idx(stack_[depth_ - 1].name);
        }
        Totals &edge = byParent_[parent][idx(o.name)];
        ++edge.count;
        edge.ns += d;
        if ((++completed_ & ((1u << kSampleShift) - 1)) == 0) {
            Sample s{request_, o.name, static_cast<std::uint8_t>(parent),
                     o.startNs, t};
            if (ring_.size() < kRingCapacity)
                ring_.push_back(s);
            else
                ring_[ringNext_] = s;
            ringNext_ = (ringNext_ + 1) % kRingCapacity;
        }
    }

    const Totals &totals(SpanName n) const { return totals_[idx(n)]; }

    /**
     * Measure what an empty span costs: the duration it records (about
     * one clock read) and the wall time its begin/end pair takes. Self
     * times discount the first per span and the rest, which lands in
     * the parent, per direct child.
     */
    void
    calibrate()
    {
        SpanRecorder probe;
        constexpr int kProbes = 200000;
        const std::uint64_t t0 = nowNs();
        for (int i = 0; i < kProbes; ++i) {
            probe.begin(SpanName::Run);
            probe.end();
        }
        const double wallNs = static_cast<double>(nowNs() - t0) / kProbes;
        biasNs_ = static_cast<double>(probe.totals(SpanName::Run).ns) /
                  kProbes;
        parentCostNs_ = std::max(0.0, wallNs - biasNs_);
    }

    /** Inclusive host seconds of @p n. */
    double
    totalS(SpanName n) const
    {
        return static_cast<double>(totals(n).ns) * 1e-9;
    }

    /**
     * Self seconds of @p n: its duration minus what its child spans
     * cover, less the calibrated cost of its own and its children's
     * clock reads.
     */
    double
    selfS(SpanName n) const
    {
        const Totals &t = totals(n);
        std::uint64_t children = 0;
        for (const Totals &edge : byParent_[idx(n)])
            children += edge.count;
        double self = static_cast<double>(t.ns - t.childNs) -
                      biasNs_ * static_cast<double>(t.count) -
                      parentCostNs_ * static_cast<double>(children);
        return std::max(0.0, self) * 1e-9;
    }

    /** Span names are plain identifiers, so they need no escaping. */
    void
    writeJson(std::ostream &os) const
    {
        auto name = [](std::size_t i) {
            return i == kNumSpans ? "\"root\""
                                  : std::string("\"") + kSpanNames[i] + "\"";
        };
        os << "{\n  \"clock_bias_ns\": " << jsonNumber(biasNs_)
           << ",\n  \"parent_cost_ns\": " << jsonNumber(parentCostNs_)
           << ",\n  \"spans\": {";
        for (std::size_t i = 0; i < kNumSpans; ++i) {
            const Totals &t = totals_[i];
            os << (i ? ",\n    " : "\n    ") << name(i)
               << ": {\"count\": " << t.count << ", \"ns\": " << t.ns
               << ", \"child_ns\": " << t.childNs << ", \"self_s\": "
               << jsonNumber(selfS(static_cast<SpanName>(i))) << "}";
        }
        os << "\n  },\n  \"edges\": [";
        bool first = true;
        for (std::size_t p = 0; p <= kNumSpans; ++p) {
            for (std::size_t c = 0; c < kNumSpans; ++c) {
                const Totals &t = byParent_[p][c];
                if (!t.count)
                    continue;
                os << (first ? "\n    " : ",\n    ") << "{\"parent\": "
                   << name(p) << ", \"name\": " << name(c)
                   << ", \"count\": " << t.count << ", \"ns\": " << t.ns
                   << "}";
                first = false;
            }
        }
        os << "\n  ],\n  \"sampled\": [";
        for (std::size_t i = 0; i < ring_.size(); ++i) {
            const Sample &s = ring_[i];
            os << (i ? ",\n    " : "\n    ") << "{\"request\": " << s.request
               << ", \"name\": " << name(idx(s.name))
               << ", \"parent\": " << name(s.parent)
               << ", \"start_ns\": " << s.startNs
               << ", \"end_ns\": " << s.endNs << "}";
        }
        os << "\n  ]\n}\n";
    }

  private:
    struct Open
    {
        SpanName name;
        std::uint64_t startNs;
        std::uint64_t childNs;
    };

    std::array<Open, 8> stack_{};
    std::size_t depth_ = 0;
    std::array<Totals, kNumSpans> totals_{};
    std::array<std::array<Totals, kNumSpans>, kNumSpans + 1> byParent_{};
    std::vector<Sample> ring_;
    std::size_t ringNext_ = 0;
    std::uint64_t completed_ = 0;
    std::uint32_t request_ = 0;
    double biasNs_ = 0.0;
    double parentCostNs_ = 0.0;
};

class SpanScope
{
  public:
    SpanScope(SpanRecorder &rec, SpanName n) : rec_(rec) { rec_.begin(n); }
    ~SpanScope() { rec_.end(); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanRecorder &rec_;
};

/** A TraceSource that records a span around every batch it delivers. */
class SpannedSource final : public TraceSource
{
  public:
    SpannedSource(TraceSource &inner, SpanRecorder &rec, SpanName name)
        : inner_(inner), rec_(rec), name_(name)
    {}

    std::size_t
    nextBatch(std::span<InstrRecord> out) override
    {
        SpanScope s(rec_, name_);
        std::size_t n = inner_.nextBatch(out);
        records_ += n;
        return n;
    }

    bool next(InstrRecord &out) override { return nextBatch({&out, 1}) == 1; }
    void reset() override { inner_.reset(); }
    std::uint64_t sizeHint() const override { return inner_.sizeHint(); }

    std::uint64_t records() const { return records_; }

  private:
    TraceSource &inner_;
    SpanRecorder &rec_;
    SpanName name_;
    std::uint64_t records_ = 0;
};

// --- assembled layers --------------------------------------------------

/**
 * One spec's simulator assembled from the layers' public constructors
 * and driven by this file's own loops, mirroring System's construction,
 * its cycle-at-a-time timing loop, its functional kernel (funcStep),
 * the warm-up/measure boundary and collect(). Every call into a layer
 * is wrapped in a span. Must reproduce System's SimResults exactly.
 */
class AssembledRun
{
  public:
    AssembledRun(const RunSpec &spec, SpanRecorder &rec) : rec_(rec)
    {
        SpanScope build(rec_, SpanName::SystemBuild);
        cfg_ = makeConfig(spec);
        cfg_.hierarchy.numCores = cfg_.numCores;
        if (cfg_.functional)
            cfg_.hierarchy.makeFunctional();
        cfg_.prefetch.lineBytes = cfg_.hierarchy.l1i.lineBytes;
        hier_ = std::make_unique<CacheHierarchy>(cfg_.hierarchy);

        const TraceSpec trace = cfg_.effectiveTrace();
        if (trace.enabled()) {
            TraceReadMode mode = trace.tolerant ? TraceReadMode::Tolerant
                                                : TraceReadMode::Strict;
            for (unsigned c = 0; c < cfg_.numCores; ++c) {
                std::unique_ptr<TraceSource> reader;
                if (trace.shared) {
                    SpanScope s(rec_, SpanName::TraceAcquire);
                    reader = std::make_unique<CachedTraceSource>(
                        TraceCache::instance().acquire(trace.path, mode));
                } else {
                    SpanScope s(rec_, SpanName::TraceOpen);
                    reader = openTraceReader(trace.path, mode);
                }
                if (trace.loop) {
                    inner_.push_back(
                        std::make_unique<LoopingTraceSource>(*reader));
                    readers_.push_back(std::move(reader));
                } else {
                    inner_.push_back(std::move(reader));
                }
                sources_.push_back(std::make_unique<SpannedSource>(
                    *inner_.back(), rec_, SpanName::TraceBatch));
            }
        } else {
            const bool slicedMix =
                cfg_.numCores == 1 && cfg_.workloads.size() > 1;
            const std::size_t n =
                slicedMix ? cfg_.workloads.size() : cfg_.numCores;
            for (std::size_t i = 0; i < n; ++i) {
                WorkloadKind kind = cfg_.workloads.size() == 1
                                        ? cfg_.workloads[0]
                                        : cfg_.workloads[i];
                inner_.push_back(makeWorkload(
                    kind, static_cast<CoreId>(i), cfg_.baseSeed));
                sources_.push_back(std::make_unique<SpannedSource>(
                    *inner_.back(), rec_, SpanName::WorkloadBatch));
            }
        }

        for (unsigned c = 0; c < cfg_.numCores; ++c)
            engines_.push_back(std::make_unique<PrefetchEngine>(
                cfg_.prefetch, c, *hier_));

        sliced_ = cfg_.numCores == 1 && sources_.size() > 1;
        const unsigned blockRecs =
            sliced_ ? 1u : std::max(1u, cfg_.core.fetchBlockRecords);
        if (cfg_.functional) {
            func_.resize(cfg_.numCores);
            for (unsigned c = 0; c < cfg_.numCores; ++c) {
                func_[c].trace = sources_[c].get();
                func_[c].block.resize(blockRecs);
            }
        } else {
            CoreParams cp = cfg_.core;
            cp.fetchBlockRecords = blockRecs;
            for (unsigned c = 0; c < cfg_.numCores; ++c)
                cores_.push_back(std::make_unique<OoOCore>(
                    c, cp, *hier_, *engines_[c], sources_[c].get()));
        }

        auto hier = std::make_unique<StatGroup>("hierarchy");
        hier_->registerStats(*hier);
        hier_->memory().registerStats(*hier);
        groups_.push_back(std::move(hier));
        for (auto &e : engines_) {
            groups_.push_back(std::make_unique<StatGroup>("prefetch"));
            e->registerStats(*groups_.back());
        }
        for (auto &core : cores_) {
            groups_.push_back(std::make_unique<StatGroup>("core"));
            core->registerStats(*groups_.back());
        }
        for (auto &g : groups_)
            statsRoot_.addChild(g.get());
    }

    SimResults
    run()
    {
        SpanScope s(rec_, SpanName::Run);
        if (cfg_.warmupInstrs > 0)
            loop(progress() + cfg_.warmupInstrs);

        statsRoot_.resetAll();
        measureInstrBase_ = progress();
        measureCycleBase_ = now_;
        if (!cfg_.functional && !cores_.empty())
            sliceStart_ = cores_[0]->committed();
        for (auto &core : cores_)
            core->onMeasureBegin();

        loop(progress() + cfg_.measureInstrs);
        for (auto &core : cores_)
            core->finishAccounting(now_);
        SimResults r = collect();
        r.ipc = r.cycles ? static_cast<double>(r.instructions) /
                               static_cast<double>(r.cycles)
                         : 0.0;
        return r;
    }

    /** Records each source kind delivered (warm-up included). */
    std::uint64_t
    recordsDelivered() const
    {
        std::uint64_t n = 0;
        for (const auto &s : sources_)
            n += s->records();
        return n;
    }

    /** Most records a single source delivered. */
    std::uint64_t
    maxSourceRecords() const
    {
        std::uint64_t n = 0;
        for (const auto &s : sources_)
            n = std::max(n, s->records());
        return n;
    }

  private:
    struct FuncState
    {
        TraceSource *trace = nullptr;
        InstrRecord prev;
        bool havePrev = false;
        Addr curLine = invalidAddr;
        std::uint64_t emitted = 0;
        std::vector<InstrRecord> block;
        std::uint32_t pos = 0;
        std::uint32_t len = 0;
    };

    std::uint64_t
    progress() const
    {
        std::uint64_t total = 0;
        for (const auto &st : func_)
            total += st.emitted;
        for (const auto &core : cores_)
            total += core->committed();
        return total;
    }

    void
    loop(std::uint64_t target)
    {
        if (cfg_.functional)
            runFunctional(target);
        else
            runTiming(target);
    }

    void
    rotateSlice(std::uint64_t done)
    {
        if (done - sliceStart_ < cfg_.timeSliceInstrs)
            return;
        activeSlice_ = (activeSlice_ + 1) % sources_.size();
        TraceSource *next = sources_[activeSlice_].get();
        if (cfg_.functional)
            func_[0].trace = next;
        else
            cores_[0]->setTrace(next);
        sliceStart_ = done;
    }

    void
    runTiming(std::uint64_t target)
    {
        const Cycle guard =
            now_ + 1000 + 400 * (target - std::min(target, progress()));
        while (progress() < target) {
            for (auto &core : cores_) {
                SpanScope s(rec_, SpanName::CpuTick);
                core->tick(now_);
            }
            ++now_;
            if (now_ > guard)
                throw std::runtime_error(
                    "assembled timing loop is not making progress");
            if (sliced_)
                rotateSlice(cores_[0]->committed());
        }
    }

    void
    runFunctional(std::uint64_t target)
    {
        const unsigned nc = cfg_.numCores;
        while (progress() < target) {
            for (unsigned c = 0; c < nc; ++c) {
                FuncState &st = func_[c];
                if (st.pos == st.len) {
                    st.len = static_cast<std::uint32_t>(st.trace->nextBatch(
                        {st.block.data(), st.block.size()}));
                    st.pos = 0;
                    if (st.len == 0)
                        throw std::runtime_error(
                            "instruction stream ended unexpectedly");
                }
                funcStep(c, st, st.block[st.pos]);
                ++st.pos;
            }
            ++now_;
            if (sliced_)
                rotateSlice(func_[0].emitted);
        }
    }

    /** System::funcStep with a span around each layer call. */
    void
    funcStep(unsigned c, FuncState &st, const InstrRecord &rec)
    {
        PrefetchEngine &engine = *engines_[c];
        Addr line = hier_->lineOf(rec.pc);
        bool lineAccess = line != st.curLine;
        if (lineAccess) {
            FetchTransition tr = st.havePrev ? st.prev.transitionType()
                                             : FetchTransition::Sequential;
            FetchResult res;
            {
                SpanScope s(rec_, SpanName::CacheFetch);
                res = hier_->fetchAccess(c, rec.pc, tr, now_);
            }
            DemandFetchEvent ev;
            ev.lineAddr = line;
            ev.prevLineAddr = st.curLine;
            ev.transition = tr;
            ev.now = now_;
            ev.miss = res.l1Miss;
            ev.firstUseOfPrefetch = res.firstUseOfPrefetch;
            ev.latePrefetchHit = res.latePrefetchHit;
            {
                SpanScope s(rec_, SpanName::PfDemand);
                engine.onDemandFetch(ev);
            }
            st.curLine = line;
        }
        if (rec.isMem()) {
            SpanScope s(rec_, SpanName::CacheData);
            hier_->dataAccess(c, rec.dataAddr, rec.op == OpClass::Store,
                              now_);
        }
        if (engine.wantsFunctionEvents() &&
            (rec.op == OpClass::Call || rec.op == OpClass::Jump ||
             rec.op == OpClass::Return)) {
            FunctionEvent fe;
            fe.isReturn = rec.op == OpClass::Return;
            fe.sitePc = rec.pc;
            fe.target = rec.target;
            engine.onFunction(fe);
        }
        if (engine.wantsBranchEvents() && rec.op == OpClass::CondBranch) {
            BranchEvent be;
            be.branchPc = rec.pc;
            be.takenTarget = rec.target;
            be.fallthrough = rec.pc + instrBytes;
            be.taken = rec.taken;
            engine.onBranch(be);
        }
        {
            SpanScope s(rec_, SpanName::PfTick);
            engine.tick(now_, !lineAccess);
        }
        st.prev = rec;
        st.havePrev = true;
        ++st.emitted;
    }

    /** System::collect over the assembled layers. */
    SimResults
    collect() const
    {
        SimResults r;
        r.instructions = progress() - measureInstrBase_;
        r.cycles = now_ - measureCycleBase_;
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

    SpanRecorder &rec_;
    SystemConfig cfg_;
    std::unique_ptr<CacheHierarchy> hier_;
    std::vector<std::unique_ptr<TraceSource>> readers_;
    std::vector<std::unique_ptr<TraceSource>> inner_;
    std::vector<std::unique_ptr<SpannedSource>> sources_;
    std::vector<std::unique_ptr<PrefetchEngine>> engines_;
    std::vector<std::unique_ptr<OoOCore>> cores_;
    std::vector<FuncState> func_;
    StatGroup statsRoot_{"system"};
    std::vector<std::unique_ptr<StatGroup>> groups_;
    bool sliced_ = false;
    std::size_t activeSlice_ = 0;
    std::uint64_t sliceStart_ = 0;
    Cycle now_ = 0;
    std::uint64_t measureInstrBase_ = 0;
    Cycle measureCycleBase_ = 0;
};

// --- workloads ---------------------------------------------------------

struct Plan
{
    std::string name;
    unsigned jobs = 1;
    std::vector<RunSpec> specs;
    std::vector<std::string> labels;
    /** trace-replay: the trace captured during set-up. */
    std::string tracePath;
    std::uint64_t traceRecords = 0;
};

const std::vector<WorkloadKind> kApps = {WorkloadKind::DB, WorkloadKind::TPCW,
                                         WorkloadKind::JAPP,
                                         WorkloadKind::WEB};

/** Instruction-budget scale per workload (RunSpec::instrScale). */
struct Scale
{
    double timing;
    double functional;
    double replay;
    std::uint64_t traceRecords;
};

/**
 * The figure benches' default scales: fig11's 0.5 for timing, fig05's
 * 0.3 for both functional workloads. At 0.3 a functional core runs
 * 300k records (warm-up included), so a 400k-record trace is replayed
 * once per core, never looped.
 */
constexpr Scale kFullScale{0.5, 0.3, 0.3, 400'000};
constexpr Scale kTinyScale{0.01, 0.01, 0.01, 20'000};

unsigned
poolJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return std::max(1u, std::min(hw ? hw : 1u, 4u));
}

Plan
makePlan(const std::string &name, std::uint64_t seed, const Scale &scale)
{
    Plan p;
    p.name = name;
    auto add = [&p](RunSpec::Builder &b, std::string label) {
        p.specs.push_back(b.build());
        p.labels.push_back(std::move(label));
    };
    if (name == "timing") {
        p.jobs = 1;
        struct Set
        {
            std::string label;
            bool cmp;
            std::vector<WorkloadKind> kinds;
        };
        std::vector<Set> sets;
        for (const WorkloadSet &ws : figureWorkloads(true))
            sets.push_back({ws.label, true, ws.kinds});
        sets.push_back({"Mixed-sliced", false, kApps});
        for (const Set &s : sets) {
            for (bool disc : {false, true}) {
                auto b = RunSpec::builder()
                             .cmp(s.cmp)
                             .workloads(s.kinds)
                             .instrScale(scale.timing)
                             .baseSeed(seed);
                if (disc)
                    b.scheme("discontinuity").bypassL2(true);
                add(b, s.label + (disc ? "/discontinuity+bypass" : "/none"));
            }
        }
    } else if (name == "functional-sweep") {
        p.jobs = poolJobs();
        for (const WorkloadSet &ws : figureWorkloads(true)) {
            for (const char *scheme :
                 {"none", "n4l", "discontinuity", "domino", "isb", "mana"}) {
                auto b = RunSpec::builder()
                             .cmp(true)
                             .workloads(ws.kinds)
                             .functional()
                             .scheme(scheme)
                             .instrScale(scale.functional)
                             .baseSeed(seed);
                add(b, ws.label + "/" + scheme);
            }
        }
    } else if (name == "trace-replay") {
        p.jobs = poolJobs();
        p.tracePath = kOutDir + "/mixed-" + std::to_string(seed) + ".v3";
        p.traceRecords = scale.traceRecords;
        for (const char *scheme : {"none", "n4l", "discontinuity"}) {
            for (bool shared : {true, false}) {
                TraceSpec t = TraceSpec::file(p.tracePath);
                t.shared = shared;
                auto b = RunSpec::builder()
                             .cmp(true)
                             .functional()
                             .trace(t)
                             .scheme(scheme)
                             .instrScale(scale.replay)
                             .baseSeed(seed);
                add(b, std::string("trace/") + scheme +
                           (shared ? "/shared" : "/stream"));
            }
        }
    } else {
        throw std::invalid_argument("unknown workload '" + name +
                                    "' (timing, functional-sweep, "
                                    "trace-replay)");
    }
    return p;
}

// --- set-up ------------------------------------------------------------

struct SetupTimes
{
    double programS = 0.0;
    double captureS = 0.0;
    std::uint64_t traceBytes = 0;
};

/**
 * Capture @p records instructions of the time-sliced Mixed generator
 * (the four applications rotating every timeSliceInstrs) as a v3 trace.
 */
std::uint64_t
captureMixedTrace(const std::string &path, std::uint64_t seed,
                  std::uint64_t records)
{
    std::vector<std::unique_ptr<Workload>> gens;
    for (std::size_t i = 0; i < kApps.size(); ++i)
        gens.push_back(makeWorkload(kApps[i], static_cast<CoreId>(i), seed));
    const std::uint64_t slice = SystemConfig{}.timeSliceInstrs;
    TraceFileWriter writer(path);
    std::vector<InstrRecord> buf(4096);
    std::uint64_t written = 0;
    for (std::size_t g = 0; written < records; g = (g + 1) % gens.size()) {
        std::uint64_t left = std::min(slice, records - written);
        while (left > 0) {
            std::size_t n = static_cast<std::size_t>(
                std::min<std::uint64_t>(left, buf.size()));
            gens[g]->nextBatch({buf.data(), n});
            for (std::size_t i = 0; i < n; ++i)
                writer.write(buf[i]);
            left -= n;
            written += n;
        }
    }
    writer.close();
    return std::filesystem::file_size(path);
}

/**
 * One set-up pass: build every preset program (the memoized
 * buildProgram() on the first pass, an identical fresh ProgramCfg
 * afterwards) and, on trace-replay, capture the trace.
 */
SetupTimes
runSetup(const Plan &plan, std::uint64_t seed, bool first)
{
    SetupTimes t;
    for (WorkloadKind k : kApps) {
        // Time the build only; a fresh copy is freed before the next
        // one so set-up adds at most one program to peak memory.
        auto t0 = Clock::now();
        std::shared_ptr<const ProgramCfg> prog =
            first ? buildProgram(k)
                  : std::make_shared<const ProgramCfg>(presetConfig(k));
        t.programS += secondsSince(t0);
    }
    if (!plan.tracePath.empty()) {
        auto t1 = Clock::now();
        t.traceBytes =
            captureMixedTrace(plan.tracePath, seed, plan.traceRecords);
        t.captureS = secondsSince(t1);
    }
    return t;
}

// --- campaigns ---------------------------------------------------------

/** FNV-1a over the hex-exact results of every spec, in input order. */
std::uint64_t
resultsDigest(const std::vector<RunOutcome> &outcomes)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](const std::string &s) {
        for (unsigned char ch : s) {
            h ^= ch;
            h *= 1099511628211ull;
        }
        h ^= 0xff;
        h *= 1099511628211ull;
    };
    for (const RunOutcome &o : outcomes)
        mix(o.ok() ? resultsToJson(o.results) : std::string("not-ok"));
    return h;
}

struct Campaign
{
    double wallS = 0.0;
    std::vector<RunOutcome> outcomes;
    std::uint64_t digest = 0;
    unsigned notOk = 0;
    /** Simulated instructions, warm-up plus measurement. */
    double instructions = 0.0;
    TraceCache::Stats cache;
};

Campaign
runCampaign(const Plan &plan, unsigned jobs)
{
    // Every campaign decodes its shared trace afresh, as a new process
    // running the campaign would.
    if (!plan.tracePath.empty())
        TraceCache::instance().clear();
    BatchOptions opt;
    opt.jobs = jobs;
    opt.maxAttempts = 1;
    Campaign c;
    auto t0 = Clock::now();
    c.outcomes = runBatch(plan.specs, opt);
    c.wallS = secondsSince(t0);
    c.digest = resultsDigest(c.outcomes);
    c.cache = TraceCache::instance().stats();
    for (std::size_t i = 0; i < c.outcomes.size(); ++i) {
        const RunOutcome &o = c.outcomes[i];
        if (!o.ok()) {
            ++c.notOk;
            std::cerr << "run " << plan.labels[i] << " failed: " << o.error
                      << "\n";
            continue;
        }
        c.instructions += static_cast<double>(
            makeConfig(plan.specs[i]).warmupInstrs + o.results.instructions);
    }
    return c;
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
hex64(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Metrics in the order they are reported: name, value, unit. */
class Metrics
{
  public:
    void
    set(const std::string &name, double value, const std::string &unit)
    {
        items_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
    }

    void
    printTable(std::ostream &os) const
    {
        for (const auto &m : items_) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.6g", m.value);
            os << "  " << m.name << " = " << buf << " " << m.unit << "\n";
        }
    }

    std::string
    json() const
    {
        std::ostringstream os;
        os << "{";
        for (std::size_t i = 0; i < items_.size(); ++i) {
            char buf[40];
            std::snprintf(buf, sizeof buf, "%.17g", items_[i].value);
            os << (i ? ", " : "") << jsonString(items_[i].name)
               << ": {\"value\": " << buf
               << ", \"unit\": " << jsonString(items_[i].unit) << "}";
        }
        os << "}";
        return os.str();
    }

  private:
    struct Item
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Item> items_;
};

/** Sums of the SimResults fields the per-layer counts are built from. */
struct ResultSums
{
    double instr = 0, fetchLines = 0, dataAcc = 0, l1iMiss = 0,
           l2iMiss = 0, l2dMiss = 0, bypassInstalls = 0, memReads = 0,
           memPfReads = 0, memQueueDelay = 0, pfIssued = 0, pfUseful = 0,
           pfCovered = 0, pfTagProbes = 0, pfFiltered = 0, pfMetaBytes = 0,
           pfMetaWrites = 0;
    /** Core-side sums over timing specs only: functional mode has no
     *  core, and its one-instruction-per-core "cycles" are not ticks. */
    double timingInstr = 0, cycles = 0, coreCycles = 0, mispredicts = 0;
    std::array<double, kNumCycleBuckets> cpi{};
};

ResultSums
sumResults(const Plan &plan, const std::vector<RunOutcome> &outcomes)
{
    ResultSums t;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (!outcomes[i].ok())
            continue;
        const SimResults &r = outcomes[i].results;
        auto d = [](std::uint64_t v) { return static_cast<double>(v); };
        t.instr += d(r.instructions);
        if (!plan.specs[i].functional) {
            t.timingInstr += d(r.instructions);
            t.cycles += d(r.cycles);
            t.coreCycles +=
                d(r.cycles) * makeConfig(plan.specs[i]).numCores;
            t.mispredicts += d(r.branchMispredicts);
        }
        t.fetchLines += d(r.fetchLineAccesses);
        t.dataAcc += d(r.l1dAccesses);
        t.l1iMiss += d(r.l1iMisses);
        t.l2iMiss += d(r.l2iMisses);
        t.l2dMiss += d(r.l2dMisses);
        t.bypassInstalls += d(r.bypassInstalls);
        t.memReads += d(r.memReads);
        t.memPfReads += d(r.memPrefetchReads);
        t.memQueueDelay += d(r.memQueueDelayCycles);
        t.pfIssued += d(r.pfIssued);
        t.pfUseful += d(r.pfUseful);
        t.pfCovered += d(r.l1iFirstUseHits + r.l1iLateHits);
        t.pfTagProbes += d(r.pfTagProbes);
        t.pfFiltered += d(r.pfFiltered);
        t.pfMetaBytes += d(r.pfMetaBytes);
        t.pfMetaWrites += d(r.pfMetaOffChipWrites);
        for (std::size_t b = 0; b < kNumCycleBuckets; ++b)
            t.cpi[b] += d(r.cpiStack[b]);
    }
    return t;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Name the differing headline counters, then print both results. */
void
reportMismatch(const std::string &label, const SimResults &want,
               const SimResults &got)
{
    std::cerr << "cross-check mismatch on " << label << ":\n";
    auto cmp = [&](const char *field, std::uint64_t a, std::uint64_t b) {
        if (a != b)
            std::cerr << "  " << field << ": System " << a
                      << ", assembled " << b << "\n";
    };
    cmp("instructions", want.instructions, got.instructions);
    cmp("cycles", want.cycles, got.cycles);
    cmp("l1iMisses", want.l1iMisses, got.l1iMisses);
    cmp("l2iMisses", want.l2iMisses, got.l2iMisses);
    cmp("l2dMisses", want.l2dMisses, got.l2dMisses);
    cmp("pfIssued", want.pfIssued, got.pfIssued);
    cmp("pfUseful", want.pfUseful, got.pfUseful);
    cmp("pfTagProbes", want.pfTagProbes, got.pfTagProbes);
    cmp("memReads", want.memReads, got.memReads);
    for (std::size_t b = 0; b < kNumCycleBuckets; ++b)
        cmp(cycleBucketName(static_cast<CycleBucket>(b)), want.cpiStack[b],
            got.cpiStack[b]);
    std::cerr << "  System:    " << resultsToJson(want)
              << "\n  assembled: " << resultsToJson(got) << "\n";
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
};


Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        auto val = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(k + " needs a value");
            return argv[++i];
        };
        if (k == "--workload")
            a.workload = val();
        else if (k == "--seed")
            a.seed = std::stoull(val());
        else if (k == "--seconds")
            a.seconds = std::stod(val());
        else if (k == "--trace")
            a.trace = std::stoi(val()) != 0;
        else if (k == "--tiny")
            a.tiny = true;
        else
            throw std::invalid_argument("unknown argument " + k);
    }
    if (a.workload.empty())
        throw std::invalid_argument("--workload is required");
    return a;
}

struct BenchResult
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    Metrics metrics;
};

/** Account a campaign's runs; a not-Ok run fails the benchmark. */
void
countRuns(BenchResult &out, const Campaign &c)
{
    out.attempted += c.outcomes.size();
    out.failed += c.notOk;
    if (c.notOk)
        out.correct = false;
}

void
checkDigest(BenchResult &out, std::uint64_t want, std::uint64_t got,
            const char *what)
{
    if (want == got)
        return;
    std::cerr << "results digest differs (" << what << "): " << hex64(want)
              << " vs " << hex64(got) << "\n";
    out.correct = false;
    ++out.failed;
}

/** Set-up repeats until both limits are reached; setup_s is the median. */
constexpr int kMinSetupPasses = 5;
constexpr double kSetupBudgetS = 2.0;
constexpr int kMinCampaigns = 3;

/** --trace 0: repeated campaigns, end-to-end metrics. */
void
measureEndToEnd(const Args &args, const Plan &plan,
                const std::vector<SetupTimes> &setups, BenchResult &out)
{
    std::vector<double> walls;
    std::vector<double> rates;
    std::vector<double> runS;
    // One untimed campaign first warms the allocator and host caches
    // and fixes the digest every timed campaign must reproduce.
    const Campaign warm = runCampaign(plan, plan.jobs);
    countRuns(out, warm);
    const std::uint64_t digest = warm.digest;
    auto t0 = Clock::now();
    const int minCampaigns = args.tiny ? 1 : kMinCampaigns;
    while (out.correct && (static_cast<int>(walls.size()) < minCampaigns ||
                           secondsSince(t0) < args.seconds)) {
        Campaign c = runCampaign(plan, plan.jobs);
        countRuns(out, c);
        checkDigest(out, digest, c.digest, "between repetitions");
        walls.push_back(c.wallS);
        rates.push_back(c.instructions / c.wallS / 1e6);
        for (const RunOutcome &o : c.outcomes)
            runS.push_back(static_cast<double>(o.wallMs) / 1e3);
    }

    std::vector<double> setupS;
    for (const SetupTimes &s : setups)
        setupS.push_back(s.programS + s.captureS);

    // The highest percentile with at least ten samples beyond it.
    auto tail = [](std::vector<double> v, std::string &label) {
        std::sort(v.begin(), v.end());
        if (v.size() < 11) {
            label = "max";
            return v.empty() ? 0.0 : v.back();
        }
        std::size_t k = v.size() - 11;
        label = "p" + std::to_string(100 * (k + 1) / v.size());
        return v[k];
    };
    std::string wallTail, runTail;
    double wallTailV = tail(walls, wallTail);
    double runTailV = tail(runS, runTail);
    std::cout << "results_digest " << hex64(digest) << "\n"
              << "wall_s median " << median(walls) << " s, " << wallTail
              << " " << wallTailV << " s over " << walls.size()
              << " campaigns\n"
              << "per-run host time median " << median(runS) << " s, "
              << runTail << " " << runTailV << " s over " << runS.size()
              << " runs\n"
              << "setup_s median of " << setupS.size() << " passes\n";

    out.metrics.set("wall_s", median(walls), "s");
    out.metrics.set("minstr_per_s", median(rates), "Minstr/s");
    out.metrics.set("setup_s", median(setupS), "s");
    out.metrics.set("peak_rss_mb", peakRssMb(), "MB");
}

/** --trace 1: digest at two job counts, assembled-layer pass, split. */
void
measureLayers(const Args &args, const Plan &plan,
              const std::vector<SetupTimes> &setups, BenchResult &out)
{
    const bool timing = plan.name == "timing";

    // Reference campaign at one job; keep per-run reports on timing so
    // the measurement-phase host time through runBatch can be read.
    ObservabilityOptions obs;
    obs.forceReports = timing;
    setObservability(obs);
    Campaign one = runCampaign(plan, 1);
    setObservability(ObservabilityOptions{});
    countRuns(out, one);
    Campaign many = runCampaign(plan, poolJobs());
    countRuns(out, many);
    checkDigest(out, one.digest, many.digest, "--jobs 1 vs --jobs N");
    const Campaign &asPlanned = plan.jobs == 1 ? one : many;
    std::cout << "results_digest " << hex64(one.digest) << " (jobs 1 and "
              << poolJobs() << ")\n";

    // Traced pass: the same specs through the assembled layers.
    SpanRecorder rec;
    rec.calibrate();
    if (!plan.tracePath.empty())
        TraceCache::instance().clear();
    std::uint64_t workloadRecords = 0, traceRecords = 0;
    auto tTraced = Clock::now();
    for (std::size_t i = 0; i < plan.specs.size(); ++i) {
        rec.setRequest(static_cast<std::uint32_t>(i));
        AssembledRun run(plan.specs[i], rec);
        SimResults got = run.run();
        const bool replay = plan.specs[i].effectiveTrace().enabled();
        (replay ? traceRecords : workloadRecords) += run.recordsDelivered();
        // A reader that wraps would replay records it has already seen.
        if (replay && run.maxSourceRecords() > plan.traceRecords) {
            std::cerr << plan.labels[i] << ": a core read "
                      << run.maxSourceRecords() << " records of a "
                      << plan.traceRecords << "-record trace\n";
            out.correct = false;
            ++out.failed;
        }
        const RunOutcome &want = one.outcomes[i];
        if (want.ok() &&
            resultsToJson(want.results) != resultsToJson(got)) {
            reportMismatch(plan.labels[i], want.results, got);
            out.correct = false;
            ++out.failed;
        }
    }
    const double tracedS = secondsSince(tTraced);

    // Measurement-phase cost of the always-on RunControl: the same
    // timing specs through runBatch and through a bare System::run.
    double controlFrac = 0.0;
    if (timing) {
        double viaBatch = 0.0, direct = 0.0;
        for (std::size_t i = 0; i < plan.specs.size(); ++i) {
            if (!one.outcomes[i].ok())
                continue;
            viaBatch += parseJson(one.outcomes[i].jsonReport)
                            .at("profile")
                            .numberOr("measure_seconds", 0.0);
            System sys(makeConfig(plan.specs[i]));
            sys.run();
            direct += sys.profile().measureSeconds;
        }
        controlFrac = ratio(viaBatch, direct) - 1.0;
    }

    std::filesystem::create_directories(kOutDir);
    const std::string spanPath = kOutDir + "/spans-" + plan.name + "-" +
                                 std::to_string(args.seed) + ".json";
    {
        std::ofstream os(spanPath);
        rec.writeJson(os);
    }
    std::cout << "spans written to " << spanPath << "\n";

    const ResultSums t = sumResults(plan, one.outcomes);
    const double allInstr = one.instructions;
    Metrics &m = out.metrics;
    using S = SpanName;

    double busyS = 0.0, maxRunS = 0.0;
    for (const RunOutcome &o : asPlanned.outcomes) {
        busyS += static_cast<double>(o.wallMs) / 1e3;
        maxRunS = std::max(maxRunS, static_cast<double>(o.wallMs) / 1e3);
    }
    m.set("sim.system_build_s", rec.totalS(S::SystemBuild), "s");
    m.set("sim.run_s", rec.totalS(S::Run), "s");
    m.set("sim.run_s_max", maxRunS, "s");
    m.set("sim.pool_busy_frac",
          ratio(busyS, asPlanned.wallS * static_cast<double>(plan.jobs)),
          "fraction");
    m.set("sim.host_ns_per_instr", ratio(one.wallS * 1e9, allInstr), "ns");
    m.set("sim.control_overhead_frac", controlFrac, "fraction");

    const SetupTimes &s0 = setups.front();
    std::vector<double> prog, capture;
    for (const SetupTimes &s : setups) {
        prog.push_back(s.programS);
        capture.push_back(s.captureS);
    }
    const double genS = rec.selfS(S::WorkloadBatch);
    m.set("workload.program_build_s", median(prog), "s");
    m.set("workload.records", static_cast<double>(workloadRecords),
          "count");
    m.set("workload.gen_s", genS, "s");
    m.set("workload.ns_per_record",
          ratio(genS * 1e9, static_cast<double>(workloadRecords)), "ns");

    const double decodeS = rec.selfS(S::TraceBatch) +
                           rec.selfS(S::TraceAcquire) +
                           rec.selfS(S::TraceOpen);
    m.set("trace.capture_s", median(capture), "s");
    m.set("trace.bytes_per_record",
          ratio(static_cast<double>(s0.traceBytes),
                static_cast<double>(plan.traceRecords)),
          "B");
    m.set("trace.decode_s", decodeS, "s");
    m.set("trace.ns_per_record",
          ratio(decodeS * 1e9, static_cast<double>(traceRecords)), "ns");
    m.set("trace.cache_decodes", static_cast<double>(many.cache.decodes),
          "count");
    m.set("trace.cache_hits", static_cast<double>(many.cache.hits), "count");

    const SpanRecorder::Totals &tick = rec.totals(S::CpuTick);
    const double tickS = rec.selfS(S::CpuTick);
    m.set("cpu.core_cycles", t.coreCycles, "count");
    m.set("cpu.tick_s", tickS, "s");
    m.set("cpu.host_ns_per_core_cycle",
          ratio(tickS * 1e9, static_cast<double>(tick.count)), "ns");
    m.set("cpu.ipc", ratio(t.timingInstr, t.cycles), "instr/cycle");
    for (CycleBucket b :
         {CycleBucket::Busy, CycleBucket::FetchL1I, CycleBucket::FetchL2,
          CycleBucket::FetchMem, CycleBucket::PrefetchPartial,
          CycleBucket::BranchRedirect, CycleBucket::Backpressure})
        m.set(std::string("cpu.cpi_") + cycleBucketName(b),
              ratio(t.cpi[static_cast<std::size_t>(b)], t.timingInstr),
              "cycles/instr");
    m.set("cpu.branch_mpki", ratio(t.mispredicts * 1e3, t.timingInstr),
          "1/kinstr");

    const double accessS =
        rec.selfS(S::CacheFetch) + rec.selfS(S::CacheData);
    const double accesses =
        static_cast<double>(rec.totals(S::CacheFetch).count +
                            rec.totals(S::CacheData).count);
    m.set("cache.fetch_line_accesses", t.fetchLines, "count");
    m.set("cache.data_accesses", t.dataAcc, "count");
    m.set("cache.access_s", accessS, "s");
    m.set("cache.ns_per_access", ratio(accessS * 1e9, accesses), "ns");
    m.set("cache.l1i_mpki", ratio(t.l1iMiss * 1e3, t.instr), "1/kinstr");
    m.set("cache.l2i_mpki", ratio(t.l2iMiss * 1e3, t.instr), "1/kinstr");
    m.set("cache.l2d_mpki", ratio(t.l2dMiss * 1e3, t.instr), "1/kinstr");
    m.set("cache.bypass_installs", t.bypassInstalls, "count");

    m.set("memory.reads", t.memReads, "count");
    m.set("memory.prefetch_reads", t.memPfReads, "count");
    m.set("memory.queue_delay_cycles_per_read",
          ratio(t.memQueueDelay, t.memReads), "cycles");

    const double engineS = rec.selfS(S::PfDemand) + rec.selfS(S::PfTick);
    m.set("prefetch.engine_s", engineS, "s");
    m.set("prefetch.ns_per_demand_event",
          ratio(rec.selfS(S::PfDemand) * 1e9,
                static_cast<double>(rec.totals(S::PfDemand).count)),
          "ns");
    m.set("prefetch.issued", t.pfIssued, "count");
    m.set("prefetch.useful", t.pfUseful, "count");
    m.set("prefetch.accuracy", ratio(t.pfUseful, t.pfIssued), "fraction");
    m.set("prefetch.coverage",
          ratio(t.pfCovered, t.pfCovered + t.l1iMiss), "fraction");
    m.set("prefetch.tag_probes", t.pfTagProbes, "count");
    m.set("prefetch.filtered", t.pfFiltered, "count");
    m.set("prefetch.meta_bytes", t.pfMetaBytes, "B");
    m.set("prefetch.meta_offchip_writes", t.pfMetaWrites, "count");

    m.set("failed_runs", static_cast<double>(out.failed), "count");
    m.set("trace_overhead_frac", ratio(tracedS, one.wallS) - 1.0,
          "fraction");
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    try {
        args = parseArgs(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "campaign_bench: " << e.what() << "\n";
        return 2;
    }

    BenchResult out;
    try {
        std::filesystem::create_directories(kOutDir);
        const Scale &scale = args.tiny ? kTinyScale : kFullScale;
        Plan plan = makePlan(args.workload, args.seed, scale);
        std::cout << "workload " << plan.name << ": " << plan.specs.size()
                  << " specs, --jobs " << plan.jobs << ", seed "
                  << args.seed << (args.trace ? ", traced" : "") << "\n";

        std::vector<SetupTimes> setups;
        const int minPasses = args.tiny ? 1 : kMinSetupPasses;
        const double budgetS = args.tiny ? 0.0 : kSetupBudgetS;
        auto tSetup = Clock::now();
        while (static_cast<int>(setups.size()) < minPasses ||
               secondsSince(tSetup) < budgetS)
            setups.push_back(runSetup(plan, args.seed, setups.empty()));

        if (args.trace)
            measureLayers(args, plan, setups, out);
        else
            measureEndToEnd(args, plan, setups, out);
        if (!plan.tracePath.empty())
            std::filesystem::remove(plan.tracePath);
    } catch (const std::exception &e) {
        std::cerr << "campaign_bench: " << e.what() << "\n";
        return 1;
    }

    out.metrics.printTable(std::cout);
    std::cout << "{\"correct\": " << (out.correct ? "true" : "false")
              << ", \"attempted\": " << out.attempted
              << ", \"failed\": " << out.failed
              << ", \"metrics\": " << out.metrics.json() << "}" << std::endl;
    return out.correct ? 0 : 1;
}
