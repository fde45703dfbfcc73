/**
 * @file
 * Tests for the prefetch queue (Section 4.1 semantics), including a
 * differential test against a naive reference model, and the
 * recent-demand-fetch filter.
 */

#include <gtest/gtest.h>

#include <string>

#include "prefetch/fetch_history.hh"
#include "prefetch/prefetch_queue.hh"
#include "reference_prefetch_queue.hh"
#include "util/rng.hh"

using namespace ipref;

namespace
{

PrefetchCandidate
cand(Addr line)
{
    PrefetchCandidate c;
    c.lineAddr = line;
    return c;
}

} // namespace

TEST(Queue, LifoOrder)
{
    PrefetchQueue q(8);
    q.push(cand(0x100));
    q.push(cand(0x200));
    q.push(cand(0x300));
    EXPECT_EQ(q.popForIssue()->lineAddr, 0x300u);
    EXPECT_EQ(q.popForIssue()->lineAddr, 0x200u);
    EXPECT_EQ(q.popForIssue()->lineAddr, 0x100u);
    EXPECT_FALSE(q.popForIssue().has_value());
}

TEST(Queue, DuplicateWaitingIsHoisted)
{
    PrefetchQueue q(8);
    q.push(cand(0x100));
    q.push(cand(0x200));
    EXPECT_EQ(q.push(cand(0x100)), PrefetchQueue::PushResult::Hoisted);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.popForIssue()->lineAddr, 0x100u); // hoisted to head
    EXPECT_EQ(q.hoists.value(), 1u);
}

TEST(Queue, DuplicateOfIssuedIsDropped)
{
    PrefetchQueue q(8);
    q.push(cand(0x100));
    q.popForIssue();
    EXPECT_EQ(q.push(cand(0x100)),
              PrefetchQueue::PushResult::DroppedIssued);
    EXPECT_FALSE(q.popForIssue().has_value());
    EXPECT_EQ(q.duplicateDrops.value(), 1u);
}

TEST(Queue, DuplicateOfInvalidatedIsDropped)
{
    PrefetchQueue q(8);
    q.push(cand(0x100));
    q.demandFetched(0x100);
    EXPECT_EQ(q.push(cand(0x100)),
              PrefetchQueue::PushResult::DroppedInvalid);
    EXPECT_FALSE(q.popForIssue().has_value());
}

TEST(Queue, DemandInvalidatesWaiting)
{
    PrefetchQueue q(8);
    q.push(cand(0x100));
    q.push(cand(0x200));
    q.demandFetched(0x100);
    EXPECT_EQ(q.waiting(), 1u);
    EXPECT_EQ(q.popForIssue()->lineAddr, 0x200u);
    EXPECT_FALSE(q.popForIssue().has_value());
    EXPECT_EQ(q.demandInvalidations.value(), 1u);
}

TEST(Queue, OverflowDropsOldestWaiting)
{
    PrefetchQueue q(3);
    q.push(cand(0x100));
    q.push(cand(0x200));
    q.push(cand(0x300));
    q.push(cand(0x400)); // 0x100 (oldest) leaves
    EXPECT_EQ(q.overflowDrops.value(), 1u);
    EXPECT_EQ(q.popForIssue()->lineAddr, 0x400u);
    EXPECT_EQ(q.popForIssue()->lineAddr, 0x300u);
    EXPECT_EQ(q.popForIssue()->lineAddr, 0x200u);
    EXPECT_FALSE(q.popForIssue().has_value());
}

TEST(Queue, RecordsReclaimedBeforeWaiting)
{
    PrefetchQueue q(3);
    q.push(cand(0x100));
    q.popForIssue(); // 0x100 becomes an issued record
    q.push(cand(0x200));
    q.push(cand(0x300));
    // Queue full: 1 record + 2 waiting. The record is reclaimed,
    // not a waiting prefetch.
    q.push(cand(0x400));
    EXPECT_EQ(q.overflowDrops.value(), 0u);
    EXPECT_EQ(q.waiting(), 3u);
    // The issued record is gone: a duplicate now inserts fresh
    // (no suppression record left to drop it).
    EXPECT_EQ(q.push(cand(0x100)),
              PrefetchQueue::PushResult::Inserted);
}

TEST(Queue, RecordSuppressionWindow)
{
    PrefetchQueue q(4);
    q.push(cand(0x100));
    q.popForIssue();
    // While the record survives, duplicates are suppressed.
    EXPECT_EQ(q.push(cand(0x100)),
              PrefetchQueue::PushResult::DroppedIssued);
    EXPECT_EQ(q.push(cand(0x100)),
              PrefetchQueue::PushResult::DroppedIssued);
}

TEST(Queue, WaitingCount)
{
    PrefetchQueue q(8);
    EXPECT_EQ(q.waiting(), 0u);
    q.push(cand(0x100));
    q.push(cand(0x200));
    EXPECT_EQ(q.waiting(), 2u);
    q.popForIssue();
    EXPECT_EQ(q.waiting(), 1u);
    EXPECT_EQ(q.size(), 2u); // record retained
}

TEST(History, RemembersRecentFetches)
{
    FetchHistory h(4);
    h.push(0x100);
    h.push(0x200);
    EXPECT_TRUE(h.contains(0x100));
    EXPECT_TRUE(h.contains(0x200));
    EXPECT_FALSE(h.contains(0x300));
}

TEST(History, OldEntriesAgeOut)
{
    FetchHistory h(4);
    for (Addr a = 1; a <= 6; ++a)
        h.push(a * 0x100);
    EXPECT_FALSE(h.contains(0x100));
    EXPECT_FALSE(h.contains(0x200));
    EXPECT_TRUE(h.contains(0x300));
    EXPECT_TRUE(h.contains(0x600));
}

TEST(History, Capacity)
{
    FetchHistory h(32);
    EXPECT_EQ(h.capacity(), 32u);
    EXPECT_FALSE(h.contains(0));
}

namespace
{

/** Run one seeded random operation stream through the queue and
 *  the naive reference, comparing every observable after each op. */
void
diffAgainstReference(unsigned capacity, unsigned lines, std::uint64_t seed)
{
    PrefetchQueue q(capacity);
    test::ReferencePrefetchQueue ref(capacity);
    Rng rng(seed);
    auto line = [&] { return rng.below(lines) * 64 + 0x400000; };
    for (int op = 0; op < 20000; ++op) {
        std::uint64_t kind = rng.below(10);
        if (kind < 6) {
            // Distinct payloads per push, so a hoist that kept the
            // new candidate instead of the queued one would show.
            PrefetchCandidate c;
            c.lineAddr = line();
            c.origin = static_cast<PrefetchOrigin>(
                rng.below(static_cast<std::uint64_t>(
                    PrefetchOrigin::NumOrigins)));
            c.tableIndex = static_cast<std::uint32_t>(op);
            c.triggerAddr = line();
            ASSERT_EQ(q.push(c), ref.push(c)) << "op " << op;
        } else if (kind < 9) {
            auto a = q.popForIssue();
            auto b = ref.popForIssue();
            ASSERT_EQ(a.has_value(), b.has_value()) << "op " << op;
            if (a) {
                ASSERT_EQ(a->lineAddr, b->lineAddr) << "op " << op;
                ASSERT_EQ(a->origin, b->origin);
                ASSERT_EQ(a->tableIndex, b->tableIndex);
                ASSERT_EQ(a->triggerAddr, b->triggerAddr);
            }
        } else {
            Addr l = line();
            q.demandFetched(l);
            ref.demandFetched(l);
        }
        ASSERT_EQ(q.waiting(), ref.waiting()) << "op " << op;
        ASSERT_EQ(q.size(), ref.size()) << "op " << op;
    }
    EXPECT_EQ(q.pushes.value(), ref.pushes.value());
    EXPECT_EQ(q.hoists.value(), ref.hoists.value());
    EXPECT_EQ(q.duplicateDrops.value(), ref.duplicateDrops.value());
    EXPECT_EQ(q.overflowDrops.value(), ref.overflowDrops.value());
    EXPECT_EQ(q.demandInvalidations.value(),
              ref.demandInvalidations.value());
    EXPECT_EQ(q.waitingHighWater(), ref.waitingHighWater());
}

} // namespace

// The array queue with its membership filter against the deque
// reference of the Section 4.1 rules, from a queue of one up to one
// larger than the line universe (never overflows), with universes
// small enough that hoists, record drops and invalidations are common.
TEST(Queue, MatchesNaiveReference)
{
    const std::pair<unsigned, unsigned> shapes[] = {
        {1, 4},  {2, 8},   {3, 16},  {8, 24},
        {32, 48}, {32, 400}, {100, 90}};
    std::uint64_t seed = 11;
    for (auto [capacity, lines] : shapes) {
        SCOPED_TRACE("capacity " + std::to_string(capacity) +
                     " lines " + std::to_string(lines));
        diffAgainstReference(capacity, lines, seed++);
        if (HasFatalFailure())
            return;
    }
}
