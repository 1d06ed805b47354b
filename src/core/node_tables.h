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

#include <cstdint>
#include <deque>
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
};

/** Occupancy tracking plus per-unit ready queues. */
class NodeTables
{
  public:
    explicit NodeTables(const NodeTableParams &params = NodeTableParams{})
        : params_(params), occupancy_(params.numUnits, 0),
          readyQueues_(params.numUnits)
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
    }

    /** @return the ready queue for @p unit (oldest first). */
    std::deque<ReadyEntry> &readyQueue(std::uint8_t unit)
    {
        return readyQueues_[unit];
    }

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
    std::vector<std::deque<ReadyEntry>> readyQueues_;
    std::uint32_t allocNext_ = 0;
    std::uint32_t totalOccupied_ = 0;
};

} // namespace tcsim::core

#endif // TCSIM_CORE_NODE_TABLES_H
