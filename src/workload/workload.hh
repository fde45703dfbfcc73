/**
 * @file
 * The dynamic workload walker: traverses a ProgramCfg and emits a
 * deterministic, repetitive instruction stream with transaction
 * semantics, call stacks, loops, traps, a layered data stream
 * (stack / hot heap / cold streaming) and multi-context (server
 * thread) interleaving via trap-mediated context switches.
 */

#ifndef IPREF_WORKLOAD_WORKLOAD_HH
#define IPREF_WORKLOAD_WORKLOAD_HH

#include <memory>
#include <vector>

#include "trace/trace_source.hh"
#include "util/rng.hh"
#include "workload/cfg.hh"

namespace ipref
{

/**
 * A TraceSource over a static program. The stream is infinite (the
 * dispatcher loops forever); consumers bound it by instruction count.
 *
 * Multiple Workload instances may share one ProgramCfg (same binary)
 * with different walk seeds — this models several cores running the
 * same commercial application on a CMP, sharing code but executing
 * different transaction interleavings.
 */
class Workload : public TraceSource
{
  public:
    /**
     * @param prog     the static program (shared, immutable)
     * @param walkSeed seed of the dynamic walk
     * @param dataOffset added to all data addresses (per-core/process
     *                   disjoint data segments)
     */
    Workload(std::shared_ptr<const ProgramCfg> prog,
             std::uint64_t walkSeed, Addr dataOffset = 0);

    /** One record: a one-record batch through the same walk. */
    bool
    next(InstrRecord &out) override
    {
        return Workload::nextBatch({&out, 1}) == 1;
    }

    /**
     * The walker. Emits the current block's remaining static slots in
     * one inner loop, then its terminator, trap or context switch out
     * of line. The walk never ends, so this always fills @p out.
     */
    std::size_t nextBatch(std::span<InstrRecord> out) override;

    void reset() override;

    /** Completed transactions (returns into the dispatcher). */
    std::uint64_t transactionsCompleted() const { return transactions_; }

    /** Instructions emitted since construction/reset. */
    std::uint64_t instructionsEmitted() const { return emitted_; }

    /** Trap-mediated context switches taken. */
    std::uint64_t contextSwitches() const { return switches_; }

    const ProgramCfg &program() const { return *prog_; }

  private:
    struct Frame
    {
        std::uint32_t retBlock;
        std::uint16_t retInstr;
    };

    /** A suspended or running request context (server thread). */
    struct Context
    {
        std::vector<Frame> stack;
        std::uint32_t curBlock = 0;
        unsigned instrIdx = 0;
    };

    /** The asynchronous event drawn before a record, if any. */
    enum class Async : std::uint8_t
    {
        None,
        Switch, //!< timer interrupt that switches context
        Trap,   //!< plain trap; the handler resumes the same context
    };

    /** Address of instruction slot @p idx in block @p gb. */
    Addr addrOf(std::uint32_t gb, unsigned idx) const;

    /** Draw the two per-record asynchronous events in order (a zero
     *  threshold draws nothing). */
    static Async drawAsync(Rng &rng, std::uint64_t switchBelow,
                           std::uint64_t trapBelow);

    /**
     * Emit static slots [@p idx, @p stop) of @p bb into [@p o, @p end)
     * with the RNG and cold cursor in locals, advancing @p idx. Stops
     * early, with @p event set and the slot not emitted, when an
     * asynchronous draw fires. @return one past the last record
     * written.
     */
    InstrRecord *emitRun(const BasicBlock &bb, unsigned &idx,
                         unsigned stop, bool handler, InstrRecord *o,
                         InstrRecord *end, Async &event);

    /** Generate a data effective address for a memory op, with the
     *  stack frame of the running context ending at @p frameTop. */
    Addr genDataAddr(Rng &rng, std::uint64_t &coldCursor,
                     Addr frameTop) const;

    /** Emit the terminator of @p bb, the block at @p blk of the
     *  running context or of the trap handler, and move to its
     *  successor. */
    void emitTerminator(const BasicBlock &bb, std::uint32_t &blk,
                        unsigned &idx, bool handler, InstrRecord &out);

    /** Enter a trap handler for @p event; the handler's return resumes
     *  the next context (Switch) or the same one (Trap). */
    void takeTrap(InstrRecord &out, Async event);

    std::shared_ptr<const ProgramCfg> prog_;
    std::uint64_t walkSeed_;
    Addr dataOffset_;

    Rng rng_;
    std::vector<Context> contexts_;
    std::size_t active_ = 0;

    /** Trap handler execution state (handlers are leaf functions). */
    bool inTrap_ = false;
    std::uint32_t trapBlock_ = 0;
    unsigned trapInstr_ = 0;
    std::size_t trapResumeCtx_ = 0;

    /** Consecutive-taken counters for loop back-edges (safety cap). */
    std::vector<std::uint8_t> loopTaken_;

    /** chanceThreshold()s of the per-record draws (0 = never). */
    std::uint64_t switchBelow_ = 0;
    std::uint64_t trapBelow_ = 0;
    std::uint64_t stackBelow_ = 0;
    std::uint64_t hotBelow_ = 0;
    std::uint64_t warmBelow_ = 0; //!< hot + warm; 0 without a warm set

    ZipfSampler hotZipf_;
    std::uint64_t coldCursor_ = 0;
    std::uint64_t coldWrap_ = 64; //!< cold-region size (cursor modulus)
    std::uint64_t frameBytes_ = 0;
    std::uint64_t warmLines_ = 0;

    Addr hotBase_ = 0;
    Addr warmBase_ = 0;
    Addr coldBase_ = 0;
    Addr stackBase_ = 0;

    std::uint64_t transactions_ = 0;
    std::uint64_t emitted_ = 0;
    std::uint64_t switches_ = 0;

    /** Back-edge runaway cap (forces loop exit). */
    static constexpr std::uint8_t maxConsecutiveTrips = 96;
};

} // namespace ipref

#endif // IPREF_WORKLOAD_WORKLOAD_HH
