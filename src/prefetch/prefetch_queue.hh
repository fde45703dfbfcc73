/**
 * @file
 * The prefetch queue of Section 4.1: a fixed-capacity LIFO structure
 * holding prefetches awaiting the instruction-cache tag port.
 *
 * Behaviours reproduced from the paper:
 *  - last-in, first-out issue (de-emphasizes stale prefetches);
 *  - overflow drops the oldest prefetches first;
 *  - duplicate pushes never create a second entry: a waiting
 *    duplicate is hoisted to the head, a duplicate of an issued or
 *    invalidated record is dropped;
 *  - demand fetches invalidate matching waiting entries;
 *  - unused slots retain records of issued/invalidated prefetches so
 *    near-future duplicates can be suppressed.
 *
 * Layout: slots never move. Queue order is an age stamp per slot
 * (larger = newer; a push or hoist takes a fresh stamp), and an
 * exact line -> slot index makes duplicate pushes, hoists and demand
 * invalidations O(1). Only the two order queries scan: issue takes
 * the newest waiting slot, and a full queue reclaims the oldest
 * record, else the oldest waiting slot. Each is one min or max over
 * a per-slot key: a "waiting" top bit (waiting slots sort above
 * every record), then the age stamp, then the slot number in the
 * low bits, so the extreme key names its slot directly.
 */

#ifndef IPREF_PREFETCH_PREFETCH_QUEUE_HH
#define IPREF_PREFETCH_PREFETCH_QUEUE_HH

#include <optional>
#include <vector>

#include "prefetch/prefetcher.hh"
#include "util/flat_map.hh"
#include "util/logging.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace ipref
{

/** The per-core prefetch queue. */
class PrefetchQueue
{
  public:
    explicit PrefetchQueue(unsigned capacity);

    /** Result of a push. */
    enum class PushResult
    {
        Inserted,       //!< new entry at the head
        Hoisted,        //!< waiting duplicate moved to the head
        DroppedIssued,  //!< duplicate of an already-issued prefetch
        DroppedInvalid, //!< duplicate of an invalidated prefetch
    };

    /** Offer a candidate to the queue. */
    PushResult push(const PrefetchCandidate &cand);

    /**
     * Take the newest waiting prefetch for issue; its slot becomes an
     * "issued" record that stays behind for duplicate suppression.
     */
    std::optional<PrefetchCandidate> popForIssue();

    /** A demand fetch of @p lineAddr invalidates matching entries. */
    void demandFetched(Addr lineAddr);

    /** Waiting entries currently queued. */
    unsigned waiting() const { return waitingCount_; }

    /** O(1) check used by the engine's per-cycle fast path. */
    bool hasWaiting() const { return waitingCount_ > 0; }

    /** All occupied slots (waiting + records). */
    unsigned size() const { return static_cast<unsigned>(keys_.size()); }

    unsigned capacity() const { return capacity_; }

    /** Most waiting entries ever queued at once (backpressure gauge). */
    unsigned waitingHighWater() const { return waitingHighWater_; }

    // Statistics.
    Counter pushes;
    Counter hoists;
    Counter duplicateDrops;
    Counter overflowDrops;   //!< waiting prefetches lost to overflow
    Counter demandInvalidations;

  private:
    enum class State : std::uint8_t
    {
        Waiting,
        Issued,
        Invalidated,
    };

    /** Set in a waiting slot's key: waiting slots order above every
     *  record, and by age among themselves. */
    static constexpr std::uint64_t kWaitingBit = std::uint64_t{1} << 63;

    /** Give slot @p i a fresh (newest) key, waiting. */
    void
    stampWaiting(std::size_t i)
    {
        ++clock_;
        ipref_assert(clock_ < (kWaitingBit >> slotBits_));
        keys_[i] = kWaitingBit | (clock_ << slotBits_) | i;
    }

    /** Turn waiting slot @p i into a record in state @p to. */
    void
    retire(std::size_t i, State to)
    {
        states_[i] = to;
        keys_[i] &= ~kWaitingBit;
        --waitingCount_;
    }

    // Slot i is cands_[i], states_[i], keys_[i]; the arrays grow to
    // capacity_ and slots are then reused in place.
    std::vector<PrefetchCandidate> cands_;
    std::vector<State> states_;
    /** kWaitingBit | age stamp << slotBits_ | slot number. */
    std::vector<std::uint64_t> keys_;
    FlatAddrMap<std::uint32_t> index_; //!< line -> slot, every slot
    std::uint64_t clock_ = 0;          //!< last age stamp handed out
    unsigned slotBits_;                //!< low key bits for the slot
    std::uint64_t slotMask_;
    unsigned capacity_;
    unsigned waitingCount_ = 0; //!< slots in State::Waiting
    unsigned waitingHighWater_ = 0;
};

} // namespace ipref

#endif // IPREF_PREFETCH_PREFETCH_QUEUE_HH
