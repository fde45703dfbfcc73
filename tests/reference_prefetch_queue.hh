/**
 * @file
 * Naive reference model of the Section 4.1 prefetch queue, kept for
 * differential testing of the optimized PrefetchQueue: a std::deque
 * of slots, newest at the front, every operation a plain linear
 * scan. Same interface and counters as PrefetchQueue.
 */

#ifndef IPREF_TESTS_REFERENCE_PREFETCH_QUEUE_HH
#define IPREF_TESTS_REFERENCE_PREFETCH_QUEUE_HH

#include <deque>
#include <iterator>
#include <optional>

#include "prefetch/prefetch_queue.hh"

namespace ipref::test
{

class ReferencePrefetchQueue
{
  public:
    using PushResult = PrefetchQueue::PushResult;

    explicit ReferencePrefetchQueue(unsigned capacity)
        : capacity_(capacity)
    {}

    PushResult
    push(const PrefetchCandidate &cand)
    {
        ++pushes;
        for (auto it = slots_.begin(); it != slots_.end(); ++it) {
            if (it->cand.lineAddr != cand.lineAddr)
                continue;
            switch (it->state) {
              case State::Waiting: {
                Slot s = *it;
                slots_.erase(it);
                slots_.push_front(s);
                ++hoists;
                return PushResult::Hoisted;
              }
              case State::Issued:
                ++duplicateDrops;
                return PushResult::DroppedIssued;
              case State::Invalidated:
                ++duplicateDrops;
                return PushResult::DroppedInvalid;
            }
        }
        makeRoom();
        slots_.push_front(Slot{cand, State::Waiting});
        ++waitingCount_;
        if (waitingCount_ > waitingHighWater_)
            waitingHighWater_ = waitingCount_;
        return PushResult::Inserted;
    }

    std::optional<PrefetchCandidate>
    popForIssue()
    {
        for (auto &slot : slots_) {
            if (slot.state == State::Waiting) {
                slot.state = State::Issued;
                --waitingCount_;
                return slot.cand;
            }
        }
        return std::nullopt;
    }

    void
    demandFetched(Addr lineAddr)
    {
        for (auto &slot : slots_) {
            if (slot.state == State::Waiting &&
                slot.cand.lineAddr == lineAddr) {
                slot.state = State::Invalidated;
                --waitingCount_;
                ++demandInvalidations;
            }
        }
    }

    unsigned waiting() const { return waitingCount_; }
    unsigned size() const { return static_cast<unsigned>(slots_.size()); }
    unsigned waitingHighWater() const { return waitingHighWater_; }

    Counter pushes;
    Counter hoists;
    Counter duplicateDrops;
    Counter overflowDrops;
    Counter demandInvalidations;

  private:
    enum class State : std::uint8_t
    {
        Waiting,
        Issued,
        Invalidated,
    };
    struct Slot
    {
        PrefetchCandidate cand;
        State state;
    };

    /** Drop the oldest record, else the oldest waiting prefetch. */
    void
    makeRoom()
    {
        if (slots_.size() < capacity_)
            return;
        for (auto it = slots_.rbegin(); it != slots_.rend(); ++it) {
            if (it->state != State::Waiting) {
                slots_.erase(std::next(it).base());
                return;
            }
        }
        slots_.pop_back();
        --waitingCount_;
        ++overflowDrops;
    }

    std::deque<Slot> slots_; //!< front = newest
    unsigned capacity_;
    unsigned waitingCount_ = 0;
    unsigned waitingHighWater_ = 0;
};

} // namespace ipref::test

#endif // IPREF_TESTS_REFERENCE_PREFETCH_QUEUE_HH
