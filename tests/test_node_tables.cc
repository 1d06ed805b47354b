/**
 * @file
 * Direct tests for the node-table (reservation station) bookkeeping.
 */

#include <deque>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/node_tables.h"

namespace tcsim::core
{
namespace
{

TEST(NodeTables, AllocateRoundRobinsAcrossUnits)
{
    NodeTables tables(NodeTableParams{4, 2});
    std::uint8_t units[4];
    for (auto &unit : units)
        ASSERT_TRUE(tables.allocate(unit));
    // Four allocations spread over four units.
    EXPECT_NE(units[0], units[1]);
    EXPECT_NE(units[1], units[2]);
    EXPECT_EQ(tables.totalOccupied(), 4u);
}

TEST(NodeTables, AllocationFailsWhenFull)
{
    NodeTables tables(NodeTableParams{2, 2});
    std::uint8_t unit = 0;
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(tables.allocate(unit));
    EXPECT_FALSE(tables.allocate(unit));
    tables.release(0);
    EXPECT_TRUE(tables.allocate(unit));
    EXPECT_EQ(unit, 0);
}

TEST(NodeTables, SkipsFullUnits)
{
    NodeTables tables(NodeTableParams{2, 1});
    std::uint8_t a = 0, b = 0;
    ASSERT_TRUE(tables.allocate(a));
    ASSERT_TRUE(tables.allocate(b));
    EXPECT_NE(a, b);
    tables.release(a);
    std::uint8_t c = 0;
    ASSERT_TRUE(tables.allocate(c));
    EXPECT_EQ(c, a);
}

TEST(NodeTables, ReadyQueuesAreFifoPerUnit)
{
    NodeTables tables(NodeTableParams{2, 4});
    tables.markReady(0, 11);
    tables.markReady(0, 12);
    tables.markReady(1, 21);
    EXPECT_EQ(tables.readyQueue(0).front().seq, 11u);
    tables.readyQueue(0).pop_front();
    EXPECT_EQ(tables.readyQueue(0).front().seq, 12u);
    EXPECT_EQ(tables.readyQueue(1).front().seq, 21u);
    // A newly ready instruction carries no disambiguation verdict.
    EXPECT_EQ(tables.readyQueue(1).front().blockedBy, kInvalidSeqNum);
}

TEST(NodeTables, ClearResetsEverything)
{
    NodeTables tables(NodeTableParams{2, 2});
    std::uint8_t unit = 0;
    tables.allocate(unit);
    tables.markReady(unit, 5);
    tables.clear();
    EXPECT_EQ(tables.totalOccupied(), 0u);
    EXPECT_TRUE(tables.readyQueue(unit).empty());
}

TEST(NodeTables, MarkReadyCountsPushesPerUnit)
{
    NodeTables tables(NodeTableParams{2, 4});
    tables.markReady(0, 1);
    tables.markReady(0, 2);
    tables.markReady(1, 3);
    // The scheduler's own turns of a queue are not pushes.
    tables.readyQueue(0).rotate(1);
    tables.readyQueue(0).pop_front();
    EXPECT_EQ(tables.pushes(0), 2u);
    EXPECT_EQ(tables.pushes(1), 1u);
}

TEST(NodeTables, ReadyEntryStaysSmall)
{
    // Every attempt touches an entry; a larger entry slowed the
    // scheduler more than the DynInst loads it would have saved.
    EXPECT_EQ(sizeof(ReadyEntry), 24u);
}

/** @return the seqs in @p ring, front first. */
std::deque<InstSeqNum>
seqsOf(const ReadyRing &ring)
{
    std::deque<InstSeqNum> seqs;
    for (std::size_t i = 0; i < ring.size(); ++i)
        seqs.push_back(ring[i].seq);
    return seqs;
}

TEST(ReadyRing, FifoAcrossWrapAround)
{
    ReadyRing ring(4);
    ASSERT_EQ(ring.capacity(), 4u);
    InstSeqNum next_in = 1;
    InstSeqNum next_out = 1;
    // Keep 3 entries live while the head laps the 4 slots many times.
    for (int i = 0; i < 3; ++i)
        ring.push_back(ReadyEntry{next_in++});
    for (int step = 0; step < 20; ++step) {
        EXPECT_EQ(ring.front().seq, next_out++);
        ring.pop_front();
        ring.push_back(ReadyEntry{next_in++});
    }
    EXPECT_EQ(ring.capacity(), 4u);
    EXPECT_EQ(seqsOf(ring), (std::deque<InstSeqNum>{21, 22, 23}));
}

TEST(ReadyRing, GrowthKeepsOrder)
{
    ReadyRing ring(4);
    // Wrap first, so growth copies a queue that straddles the end.
    for (InstSeqNum seq = 1; seq <= 3; ++seq)
        ring.push_back(ReadyEntry{seq});
    ring.pop_front();
    ring.pop_front();
    std::deque<InstSeqNum> expected{3};
    for (InstSeqNum seq = 4; seq <= 40; ++seq) {
        ring.push_back(ReadyEntry{seq, seq + 100, seq * 2});
        expected.push_back(seq);
    }
    EXPECT_EQ(ring.capacity(), 64u);
    EXPECT_EQ(seqsOf(ring), expected);
    // The verdict fields move with their entry.
    EXPECT_EQ(ring[1].blockedBy, 104u);
    EXPECT_EQ(ring[1].checkedAt, 8u);
}

TEST(ReadyRing, RotateEqualsPopPushPairs)
{
    // Partly and completely full rings, a wrapped head, and turns
    // shorter, equal to and longer than the queue.
    for (const std::size_t live : {1u, 3u, 5u, 8u}) {
        for (const std::size_t offset : {0u, 6u}) {
            for (const std::size_t k : {0u, 1u, 3u, 5u, 8u, 13u}) {
                SCOPED_TRACE("live=" + std::to_string(live) +
                             " offset=" + std::to_string(offset) +
                             " k=" + std::to_string(k));
                ReadyRing rotated(8);
                ReadyRing stepped(8);
                for (std::size_t i = 0; i < offset; ++i) {
                    rotated.push_back(ReadyEntry{999});
                    rotated.pop_front();
                    stepped.push_back(ReadyEntry{999});
                    stepped.pop_front();
                }
                for (InstSeqNum seq = 1; seq <= live; ++seq) {
                    rotated.push_back(ReadyEntry{seq});
                    stepped.push_back(ReadyEntry{seq});
                }
                rotated.rotate(k);
                for (std::size_t i = 0; i < k; ++i) {
                    const ReadyEntry entry = stepped.front();
                    stepped.pop_front();
                    stepped.push_back(entry);
                }
                EXPECT_EQ(seqsOf(rotated), seqsOf(stepped));
            }
        }
    }
}

TEST(ReadyRing, MatchesDequeUnderRandomOperations)
{
    Rng rng(20251019);
    ReadyRing ring(2);
    std::deque<ReadyEntry> reference;
    InstSeqNum next_seq = 1;
    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t op = rng.below(10);
        if (op < 4) {
            const ReadyEntry entry{next_seq, rng.below(64), rng.next()};
            ++next_seq;
            ring.push_back(entry);
            reference.push_back(entry);
        } else if (op < 7) {
            if (!reference.empty()) {
                ring.pop_front();
                reference.pop_front();
            }
        } else {
            const std::size_t k = rng.below(20);
            ring.rotate(k);
            for (std::size_t i = 0; !reference.empty() && i < k; ++i) {
                reference.push_back(reference.front());
                reference.pop_front();
            }
        }
        ASSERT_EQ(ring.size(), reference.size()) << "step " << step;
        for (std::size_t i = 0; i < reference.size(); ++i)
            ASSERT_TRUE(ring[i] == reference[i]) << "step " << step;
    }
}

TEST(NodeTablesDeath, OverReleaseAborts)
{
    NodeTables tables(NodeTableParams{2, 2});
    EXPECT_DEATH(tables.release(0), "");
}

} // namespace
} // namespace tcsim::core
