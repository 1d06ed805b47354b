/**
 * @file
 * Node tables (reservation stations) and functional-unit scheduling
 * bookkeeping for the HPS-style execution core: 16 universal
 * functional units, each fed by a 64-entry node table (paper
 * section 3). Instructions occupy an entry from dispatch until they
 * fire; each unit starts at most one operation per cycle.
 */

#ifndef TCSIM_CORE_NODE_TABLES_H
#define TCSIM_CORE_NODE_TABLES_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/log.h"
#include "common/types.h"

namespace tcsim::core
{

/** Configuration for the execution resources. */
struct NodeTableParams
{
    std::uint32_t numUnits = 16;
    std::uint32_t entriesPerUnit = 64;
};

/**
 * One ready-queue slot. Besides the instruction it carries the memory
 * scheduler's cached verdict for a load that disambiguation blocked:
 * the older store that decided "blocked" and the store-event count at
 * which the verdict was last known to hold (see
 * Processor::tryScheduleMemory). The verdict lives here rather than in
 * the DynInst, which every dispatch resets, so it does not grow the
 * per-instruction slot.
 */
struct ReadyEntry
{
    InstSeqNum seq = kInvalidSeqNum;
    /** Store that blocked the load; kInvalidSeqNum = no verdict yet. */
    InstSeqNum blockedBy = kInvalidSeqNum;
    std::uint64_t checkedAt = 0;

    bool operator==(const ReadyEntry &) const = default;
};

/**
 * A unit's ready queue: a FIFO of ReadyEntry in a power-of-two ring.
 *
 * Entry i (0 = front, the oldest) lives in slot (head + i) & mask.
 * The scheduler turns the queue every cycle: an entry that cannot fire
 * goes from the front to the back, which rotate(1) does in place, and
 * rotate(k) turns the queue by k entries in one call (a parked unit,
 * see Processor::scheduleStage). When the ring is full the turn is a
 * head move alone. The queue is not bounded by the node table: a
 * squashed instruction's entry stays queued until the scheduler meets
 * it and drops it, while its table entry is reused at once, so
 * push_back() doubles the ring when it is full.
 */
class ReadyRing
{
  public:
    /** A ring of the smallest power of two >= @p min_entries slots. */
    explicit ReadyRing(std::uint32_t min_entries)
    {
        std::size_t slots = 1;
        while (slots < min_entries)
            slots <<= 1;
        slots_.resize(slots);
    }

    std::size_t capacity() const { return slots_.size(); }
    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    /** Entry @p i in FIFO order: 0 is the front. */
    ReadyEntry &
    operator[](std::size_t i)
    {
        return slots_[(head_ + i) & (slots_.size() - 1)];
    }
    const ReadyEntry &
    operator[](std::size_t i) const
    {
        return slots_[(head_ + i) & (slots_.size() - 1)];
    }
    ReadyEntry &front() { return (*this)[0]; }

    void
    push_back(const ReadyEntry &entry)
    {
        if (count_ == slots_.size())
            grow();
        (*this)[count_] = entry;
        ++count_;
    }

    void
    pop_front()
    {
        TCSIM_ASSERT(count_ > 0);
        head_ = (head_ + 1) & (slots_.size() - 1);
        --count_;
    }

    /**
     * Move the first @p k entries (mod size) to the back, keeping their
     * order: the same queue as k pop_front/push_back pairs. Entry i is
     * copied to position size + i before the head passes it; once
     * size + i reaches the capacity that position is the old slot of
     * entry size + i - capacity < i, which has already been copied.
     */
    void
    rotate(std::size_t k)
    {
        if (count_ == 0)
            return;
        k %= count_;
        if (count_ < slots_.size()) {
            for (std::size_t i = 0; i < k; ++i)
                (*this)[count_ + i] = (*this)[i];
        }
        head_ = (head_ + k) & (slots_.size() - 1);
    }

    void
    clear()
    {
        head_ = 0;
        count_ = 0;
    }

  private:
    /** Double the ring, laying the entries out from slot 0. */
    void
    grow()
    {
        std::vector<ReadyEntry> slots(slots_.size() * 2);
        for (std::size_t i = 0; i < count_; ++i)
            slots[i] = (*this)[i];
        slots_.swap(slots);
        head_ = 0;
    }

    std::vector<ReadyEntry> slots_;
    std::size_t head_ = 0;  ///< slot of the front entry
    std::size_t count_ = 0; ///< queued entries
};

/** Occupancy tracking plus per-unit ready queues. */
class NodeTables
{
  public:
    explicit NodeTables(const NodeTableParams &params = NodeTableParams{})
        : params_(params), occupancy_(params.numUnits, 0),
          readyQueues_(params.numUnits, ReadyRing(params.entriesPerUnit)),
          pushes_(params.numUnits, 0)
    {
        TCSIM_ASSERT(params_.numUnits >= 1);
        TCSIM_ASSERT(params_.entriesPerUnit >= 1);
    }

    std::uint32_t numUnits() const { return params_.numUnits; }

    /**
     * Reserve an entry in some unit's table (round-robin among units
     * with space).
     * @param[out] unit the chosen unit
     * @return false if every table is full
     */
    bool
    allocate(std::uint8_t &unit)
    {
        for (std::uint32_t i = 0; i < params_.numUnits; ++i) {
            const std::uint32_t u =
                (allocNext_ + i) % params_.numUnits;
            if (occupancy_[u] < params_.entriesPerUnit) {
                ++occupancy_[u];
                ++totalOccupied_;
                unit = static_cast<std::uint8_t>(u);
                allocNext_ = (u + 1) % params_.numUnits;
                return true;
            }
        }
        return false;
    }

    /** Release an entry (at fire or squash). */
    void
    release(std::uint8_t unit)
    {
        TCSIM_ASSERT(occupancy_[unit] > 0);
        TCSIM_ASSERT(totalOccupied_ > 0);
        --occupancy_[unit];
        --totalOccupied_;
    }

    /** Add a ready instruction to its unit's queue. */
    void
    markReady(std::uint8_t unit, InstSeqNum seq)
    {
        readyQueues_[unit].push_back(ReadyEntry{seq});
        ++pushes_[unit];
    }

    /** @return the ready queue for @p unit (oldest first). */
    ReadyRing &readyQueue(std::uint8_t unit) { return readyQueues_[unit]; }

    /** @return how many instructions markReady() has queued on
     * @p unit; the scheduler's own turns of the queue do not count. */
    std::uint64_t pushes(std::uint8_t unit) const { return pushes_[unit]; }

    /** Total occupied entries across all tables (O(1): maintained
     * on allocate/release — dispatch checks this every cycle). */
    std::uint32_t totalOccupied() const { return totalOccupied_; }

    /** Drop all state (full squash helper for tests). */
    void
    clear()
    {
        for (auto &occ : occupancy_)
            occ = 0;
        for (auto &queue : readyQueues_)
            queue.clear();
        totalOccupied_ = 0;
    }

  private:
    NodeTableParams params_;
    std::vector<std::uint32_t> occupancy_;
    std::vector<ReadyRing> readyQueues_;
    std::vector<std::uint64_t> pushes_;
    std::uint32_t allocNext_ = 0;
    std::uint32_t totalOccupied_ = 0;
};

} // namespace tcsim::core

#endif // TCSIM_CORE_NODE_TABLES_H
