/**
 * @file
 * google-benchmark micro-benchmarks of the core data structures:
 * cache access, in-flight fill churn, predictor probe/allocate,
 * prefetch queue operations, the flat address map against
 * std::unordered_map, branch predictor updates and
 * workload-generation throughput.
 */

#include <benchmark/benchmark.h>

#include <unordered_map>
#include <vector>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "cpu/branch_predictor.hh"
#include "prefetch/discontinuity.hh"
#include "prefetch/prefetch_queue.hh"
#include "util/flat_map.hh"
#include "util/rng.hh"
#include "workload/presets.hh"

using namespace ipref;

namespace
{

void
BM_CacheAccessHit(benchmark::State &state)
{
    CacheParams p;
    p.sizeBytes = 32u << 10;
    SetAssocCache cache(p);
    for (Addr a = 0; a < (32u << 10); a += 64)
        cache.insert(0x10000000 + a, {});
    Rng rng(1);
    for (auto _ : state) {
        Addr a = 0x10000000 + rng.below(512) * 64;
        benchmark::DoNotOptimize(cache.access(a));
    }
}
BENCHMARK(BM_CacheAccessHit);

/**
 * Reference pointer-chasing cache layout: one heap node per line,
 * sets as vectors of owning pointers — what SetAssocCache looked
 * like before the packed structure-of-arrays tag store. Kept here so
 * the set-probe pair below measures the layout change in isolation.
 */
class PointerChasingCache
{
  public:
    PointerChasingCache(std::uint64_t sizeBytes, unsigned assoc,
                        unsigned lineBytes)
        : numSets_(sizeBytes / (static_cast<std::uint64_t>(assoc) *
                                lineBytes)),
          shift_(static_cast<unsigned>(__builtin_ctz(lineBytes)))
    {
        sets_.resize(numSets_);
        for (auto &set : sets_)
            for (unsigned w = 0; w < assoc; ++w)
                set.push_back(std::make_unique<Line>());
    }

    bool
    probe(Addr addr) const
    {
        const Addr tag = addr >> shift_;
        const auto &set = sets_[tag & (numSets_ - 1)];
        for (const auto &line : set)
            if (line->valid && line->tag == tag)
                return true;
        return false;
    }

    void
    insert(Addr addr)
    {
        const Addr tag = addr >> shift_;
        auto &set = sets_[tag & (numSets_ - 1)];
        for (auto &line : set) {
            if (!line->valid) {
                line->valid = true;
                line->tag = tag;
                return;
            }
        }
        set[0]->tag = tag;
    }

  private:
    struct Line
    {
        Addr tag = 0;
        std::uint64_t touch = 0;
        bool valid = false;
        std::uint8_t flags = 0;
        CoreId srcCore = 0;
    };
    std::vector<std::vector<std::unique_ptr<Line>>> sets_;
    std::uint64_t numSets_;
    unsigned shift_;
};

/** Random 2MB-footprint probe stream: half resident, half missing. */
Addr
probeAddr(Rng &rng)
{
    return 0x10000000 + rng.below(1u << 15) * 64;
}

void
BM_SetProbePointerChasing(benchmark::State &state)
{
    PointerChasingCache cache(512u << 10, 8, 64);
    Rng fill(7);
    for (int i = 0; i < 16384; ++i)
        cache.insert(probeAddr(fill));
    Rng rng(8);
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.probe(probeAddr(rng)));
}
BENCHMARK(BM_SetProbePointerChasing);

void
BM_SetProbePackedTags(benchmark::State &state)
{
    CacheParams p;
    p.sizeBytes = 512u << 10;
    p.assoc = 8;
    SetAssocCache cache(p);
    Rng fill(7);
    for (int i = 0; i < 16384; ++i)
        cache.insert(probeAddr(fill), {});
    Rng rng(8);
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.probe(probeAddr(rng)));
}
BENCHMARK(BM_SetProbePackedTags);

void
BM_CacheAccessMissAndInsert(benchmark::State &state)
{
    CacheParams p;
    p.sizeBytes = 32u << 10;
    SetAssocCache cache(p);
    Addr a = 0x10000000;
    for (auto _ : state) {
        if (!cache.access(a).hit)
            cache.insert(a, {});
        a += 64 * 17;
    }
}
BENCHMARK(BM_CacheAccessMissAndInsert);

void
BM_DiscontinuityLookup(benchmark::State &state)
{
    DiscontinuityPredictor pred(
        static_cast<unsigned>(state.range(0)), 64);
    Rng rng(2);
    for (int i = 0; i < state.range(0); ++i)
        pred.allocate(0x10000000 + rng.below(1u << 20) * 64,
                      0x20000000 + rng.below(1u << 20) * 64);
    for (auto _ : state) {
        Addr probe = 0x10000000 + rng.below(1u << 20) * 64;
        benchmark::DoNotOptimize(pred.lookup(probe));
    }
}
BENCHMARK(BM_DiscontinuityLookup)->Arg(256)->Arg(8192);

void
BM_DiscontinuityAllocate(benchmark::State &state)
{
    DiscontinuityPredictor pred(8192, 64);
    Rng rng(3);
    for (auto _ : state) {
        pred.allocate(0x10000000 + rng.below(1u << 20) * 64,
                      0x20000000 + rng.below(1u << 20) * 64);
    }
}
BENCHMARK(BM_DiscontinuityAllocate);

void
BM_PrefetchQueueChurn(benchmark::State &state)
{
    PrefetchQueue q(32);
    Rng rng(4);
    for (auto _ : state) {
        PrefetchCandidate c;
        c.lineAddr = rng.below(4096) * 64;
        q.push(c);
        if (rng.chance(0.5))
            benchmark::DoNotOptimize(q.popForIssue());
        if (rng.chance(0.1))
            q.demandFetched(rng.below(4096) * 64);
    }
}
BENCHMARK(BM_PrefetchQueueChurn);

/**
 * In-flight fill churn through the hierarchy's public entry points:
 * four cores fetch, load and prefetch lines of a working set far
 * larger than the L1s, so nearly every access starts a fill, merges
 * with one, or drains completed ones. Arg 0 runs functional (zero)
 * latencies, where each fill completes at the next entry point;
 * Arg 1 runs timing latencies, where dozens stay in flight and
 * demand accesses merge with them.
 */
void
BM_FillTableChurn(benchmark::State &state)
{
    HierarchyParams p;
    p.numCores = 4;
    p.l1i.sizeBytes = 4u << 10;
    p.l1d.sizeBytes = 4u << 10;
    p.l2.sizeBytes = 64u << 10;
    if (state.range(0) == 0)
        p.makeFunctional();
    CacheHierarchy h(p);
    Rng rng(7);
    Cycle now = 0;
    for (auto _ : state) {
        auto core = static_cast<CoreId>(rng.below(p.numCores));
        Addr line = 0x10000000 + rng.below(1u << 14) * 64;
        switch (rng.below(3)) {
          case 0:
            benchmark::DoNotOptimize(h.fetchAccess(
                core, line, FetchTransition::Sequential, now));
            break;
          case 1:
            benchmark::DoNotOptimize(
                h.dataAccess(core, line + (1u << 24), false, now));
            break;
          default:
            benchmark::DoNotOptimize(h.prefetchRequest(core, line, now));
            break;
        }
        now += 2;
    }
    h.drainAll();
}
BENCHMARK(BM_FillTableChurn)->Arg(0)->Arg(1);

/**
 * Point lookups and erase/re-insert churn on a map of 4096 live line
 * addresses (the shape of the in-flight and lifecycle maps): one
 * find of a random key from a universe twice the live set, then one
 * erase and one insert that keep the size constant.
 */
template <typename Map, typename FindFn>
void
mapFindErase(benchmark::State &state, Map &map, FindFn find)
{
    constexpr std::size_t live = 4096;
    Rng rng(8);
    std::vector<Addr> keys(2 * live);
    for (Addr &k : keys)
        k = rng.below(1u << 26) * 64;
    for (std::size_t i = 0; i < live; ++i)
        map[keys[i]] = i;
    std::size_t oldest = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(find(map, keys[rng.below(keys.size())]));
        map.erase(keys[oldest % keys.size()]);
        map[keys[(oldest + live) % keys.size()]] = oldest;
        ++oldest;
    }
}

void
BM_FlatAddrMapFindErase(benchmark::State &state)
{
    FlatAddrMap<std::uint64_t> map;
    mapFindErase(state, map, [](auto &m, Addr k) {
        return m.find(k) != nullptr;
    });
}
BENCHMARK(BM_FlatAddrMapFindErase);

void
BM_UnorderedMapFindErase(benchmark::State &state)
{
    std::unordered_map<Addr, std::uint64_t> map;
    mapFindErase(state, map, [](auto &m, Addr k) {
        return m.find(k) != m.end();
    });
}
BENCHMARK(BM_UnorderedMapFindErase);

void
BM_GshareUpdate(benchmark::State &state)
{
    GsharePredictor g(64u << 10);
    Rng rng(5);
    for (auto _ : state) {
        Addr pc = 0x10000000 + rng.below(4096) * 4;
        g.update(pc, rng.chance(0.6));
    }
}
BENCHMARK(BM_GshareUpdate);

void
BM_ZipfSample(benchmark::State &state)
{
    ZipfSampler zipf(262144, 1.3);
    Rng rng(6);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.sample(rng));
}
BENCHMARK(BM_ZipfSample);

// Generator cost per record through the batch walker, in the
// 512-record pulls the cores make.
void
BM_WorkloadGeneration(benchmark::State &state)
{
    auto wl = makeWorkload(WorkloadKind::WEB, 0);
    std::vector<InstrRecord> block(512);
    for (auto _ : state) {
        wl->nextBatch(block);
        benchmark::DoNotOptimize(block.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(block.size()));
}
BENCHMARK(BM_WorkloadGeneration);

// The same walk one next() call per record, for the same 512 records
// per iteration, as the time-sliced runs pull it.
void
BM_WorkloadGenerationScalar(benchmark::State &state)
{
    auto wl = makeWorkload(WorkloadKind::WEB, 0);
    std::vector<InstrRecord> block(512);
    for (auto _ : state) {
        for (InstrRecord &rec : block)
            wl->next(rec);
        benchmark::DoNotOptimize(block.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(block.size()));
}
BENCHMARK(BM_WorkloadGenerationScalar);

} // namespace

BENCHMARK_MAIN();
