/**
 * @file
 * Top-down cycle accounting: every timing-mode core cycle is charged
 * to exactly one CycleBucket, so the per-bucket sums form a CPI stack
 * that conserves cycles by construction (sum(buckets) == cycles, an
 * end-of-run invariant the System enforces and ipref_analyze
 * re-verifies from the event trace).
 *
 * Header-only on purpose: the charge points live in src/cpu, which
 * does not link against ipref_sim.
 */

#ifndef IPREF_SIM_CYCLE_LEDGER_HH
#define IPREF_SIM_CYCLE_LEDGER_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "util/stats.hh"

namespace ipref
{

/**
 * The single cause a core cycle is charged to.  One bucket per core
 * per cycle — the fetch stage decides the cause exactly once per
 * tick, so the buckets partition the cycle count with no overlap.
 *
 * Busy must stay 0 so the stall buckets (the only ones exported as
 * fetch_stall trace events) all have non-zero detail ids.
 */
enum class CycleBucket : std::uint8_t
{
    Busy,            //!< fetch delivered at least one instruction
    FetchL1I,        //!< stalled on a line satisfied by the L1I
    FetchL2,         //!< stalled on a line satisfied by the L2
    FetchMem,        //!< stalled on a line satisfied by memory
    PrefetchPartial, //!< stalled on a line whose in-flight prefetch
                     //!< hid part (not all) of the miss latency
    BranchRedirect,  //!< unresolved branch or redirect penalty
    Backpressure,    //!< fetch buffer full: back end not draining
    Itlb,            //!< I-TLB miss / walk penalty portion of a stall
    Drain,           //!< no instruction available (trace exhausted)
    NumBuckets,
};

constexpr std::size_t kNumCycleBuckets =
    static_cast<std::size_t>(CycleBucket::NumBuckets);

/** Stable snake_case bucket names (JSON keys, metric names). */
constexpr const char *
cycleBucketName(CycleBucket b)
{
    switch (b) {
      case CycleBucket::Busy: return "busy";
      case CycleBucket::FetchL1I: return "fetch_l1i";
      case CycleBucket::FetchL2: return "fetch_l2";
      case CycleBucket::FetchMem: return "fetch_mem";
      case CycleBucket::PrefetchPartial: return "prefetch_partial";
      case CycleBucket::BranchRedirect: return "branch_redirect";
      case CycleBucket::Backpressure: return "backpressure";
      case CycleBucket::Itlb: return "itlb";
      case CycleBucket::Drain: return "drain";
      case CycleBucket::NumBuckets: break;
    }
    return "?";
}

/**
 * Per-core cycle ledger: one Counter per bucket, registered in the
 * core's StatGroup so the warm-up/measure boundary reset and the
 * end-of-run collection work like every other core counter.
 */
class CycleLedger
{
  public:
    /** Charge @p n cycles to @p b (n > 1: a sleeping core's span). */
    void
    charge(CycleBucket b, std::uint64_t n = 1)
    {
        buckets_[idx(b)] += n;
    }

    std::uint64_t
    value(CycleBucket b) const
    {
        return buckets_[idx(b)].value();
    }

    /** Sum of all buckets; equals the cycles this core was charged. */
    std::uint64_t
    total() const
    {
        std::uint64_t sum = 0;
        for (const Counter &c : buckets_)
            sum += c.value();
        return sum;
    }

    /** Register one "cpi.<bucket>" counter per bucket in @p group. */
    void
    registerStats(StatGroup &group)
    {
        for (std::size_t i = 0; i < kNumCycleBuckets; ++i) {
            group.addCounter(
                std::string("cpi.") +
                    cycleBucketName(static_cast<CycleBucket>(i)),
                &buckets_[i], "cycles charged to this CPI bucket");
        }
    }

  private:
    static std::size_t idx(CycleBucket b)
    {
        return static_cast<std::size_t>(b);
    }

    std::array<Counter, kNumCycleBuckets> buckets_{};
};

} // namespace ipref

#endif // IPREF_SIM_CYCLE_LEDGER_HH
