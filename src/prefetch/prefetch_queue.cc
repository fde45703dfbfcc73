#include "prefetch/prefetch_queue.hh"

#include <algorithm>
#include <bit>

namespace ipref
{

PrefetchQueue::PrefetchQueue(unsigned capacity)
    : index_(std::size_t{capacity} + 1), capacity_(capacity)
{
    ipref_assert(capacity_ >= 1);
    slotBits_ = static_cast<unsigned>(std::bit_width(capacity_ - 1u));
    slotMask_ = (std::uint64_t{1} << slotBits_) - 1;
}

PrefetchQueue::PushResult
PrefetchQueue::push(const PrefetchCandidate &cand)
{
    ++pushes;
    if (const std::uint32_t *slot = index_.find(cand.lineAddr)) {
        switch (states_[*slot]) {
          case State::Waiting:
            // Hoist the existing entry to the head of the queue.
            stampWaiting(*slot);
            ++hoists;
            return PushResult::Hoisted;
          case State::Issued:
            ++duplicateDrops;
            return PushResult::DroppedIssued;
          case State::Invalidated:
            ++duplicateDrops;
            return PushResult::DroppedInvalid;
        }
    }
    std::size_t i;
    if (keys_.size() < capacity_) {
        i = keys_.size();
        cands_.emplace_back();
        states_.emplace_back();
        keys_.emplace_back();
    } else {
        // Full: reclaim the oldest issued/invalidated record (those
        // only exist opportunistically in "unused" entries); with
        // none left, the oldest waiting prefetch is dropped.
        i = *std::min_element(keys_.begin(), keys_.end()) & slotMask_;
        if (states_[i] == State::Waiting) {
            --waitingCount_;
            ++overflowDrops;
        }
        index_.erase(cands_[i].lineAddr);
    }
    cands_[i] = cand;
    states_[i] = State::Waiting;
    stampWaiting(i);
    index_[cand.lineAddr] = static_cast<std::uint32_t>(i);
    ++waitingCount_;
    if (waitingCount_ > waitingHighWater_)
        waitingHighWater_ = waitingCount_;
    return PushResult::Inserted;
}

std::optional<PrefetchCandidate>
PrefetchQueue::popForIssue()
{
    if (waitingCount_ == 0)
        return std::nullopt;
    // The largest key is the newest waiting slot.
    std::size_t i =
        *std::max_element(keys_.begin(), keys_.end()) & slotMask_;
    retire(i, State::Issued);
    return cands_[i];
}

void
PrefetchQueue::demandFetched(Addr lineAddr)
{
    // Called on every demand line fetch; with nothing waiting there
    // is nothing to invalidate. Lines are unique in the queue.
    if (waitingCount_ == 0)
        return;
    const std::uint32_t *slot = index_.find(lineAddr);
    if (!slot || states_[*slot] != State::Waiting)
        return;
    retire(*slot, State::Invalidated);
    ++demandInvalidations;
}

} // namespace ipref
