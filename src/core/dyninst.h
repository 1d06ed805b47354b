/**
 * @file
 * DynInst: the record of one in-flight dynamic instruction, carried
 * from fetch through retire. It extends the fetched instruction
 * (fetch::FetchedInst) with the core's rename, execution and
 * resolution state; the processor keeps these in the InstRing slots
 * (core/inst_ring.h).
 */

#ifndef TCSIM_CORE_DYNINST_H
#define TCSIM_CORE_DYNINST_H

#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/types.h"
#include "fetch/fetch_types.h"
#include "isa/instruction.h"

namespace tcsim::core
{

/**
 * The core's own state of one in-flight instruction: everything but
 * the fetched instruction and the waiters list. Trivially copyable, so
 * InstRing resets a recycled slot's state with one plain copy of the
 * default, written in place with no stack temporary.
 */
struct DynState
{
    // The 8-byte fields come first and the one-byte fields after them,
    // so the struct has no interior padding (see the size assert).

    // ------------------------------------------------------------------
    // Identity.
    // ------------------------------------------------------------------
    InstSeqNum seq = kInvalidSeqNum;
    std::uint64_t fetchGroup = 0;
    /** Seq of the first instruction of this fetch group. Groups
     * dispatch atomically, so [groupStartSeq, ...] is contiguous;
     * recovery uses it to find fetch-block boundaries without
     * scanning the window. */
    InstSeqNum groupStartSeq = kInvalidSeqNum;
    Cycle fetchCycle = 0;

    // ------------------------------------------------------------------
    // Oracle (statistics + perfect disambiguation) state.
    // ------------------------------------------------------------------
    std::uint64_t oracleIdx = 0;
    Addr oracleMemAddr = kInvalidAddr;

    // ------------------------------------------------------------------
    // Rename / execution state.
    // ------------------------------------------------------------------
    RegVal srcVal[2] = {0, 0};
    InstSeqNum srcDep[2] = {kInvalidSeqNum, kInvalidSeqNum};
    Cycle readyCycle = 0;   ///< earliest schedule cycle
    Cycle completeCycle = 0;
    RegVal result = 0;
    Addr memAddr = kInvalidAddr;
    RegVal storeData = 0;

    // ------------------------------------------------------------------
    // Resolution state.
    // ------------------------------------------------------------------
    Addr actualNextPc = 0;
    Cycle resolveCycle = 0;

    // ------------------------------------------------------------------
    // One-byte fields, in the same section order.
    // ------------------------------------------------------------------
    fetch::FetchSource source = fetch::FetchSource::ICache;
    /** Inactive instruction whose path lost; retires as a no-op. */
    bool discarded = false;

    bool onCorrectPath = false;

    bool srcReady[2] = {true, true};
    std::uint8_t rsTable = 0;
    bool inReadyQueue = false;
    bool fired = false;     ///< left its reservation station
    bool executed = false;  ///< result available
    bool memAddrKnown = false;

    bool taken = false;
    bool resolvedMispredict = false;
    bool resolvedFault = false;
    bool resolvedMisfetch = false;
    /** Set when a recovery originating here was actually applied
     * (recovery requests can lose arbitration to older ones whose
     * squash does not cover this instruction; the retire stage then
     * re-issues the request). */
    bool recoveryApplied = false;
};

static_assert(std::is_trivially_copyable_v<DynState>);
// 17 eight-byte fields and 15 one-byte fields, padded to 8.
static_assert(sizeof(DynState) == 152);

/** One in-flight instruction: the fetched instruction (its
 * speculation state included) plus the core's own state. */
struct DynInst : fetch::FetchedInst, DynState
{
    /** Consumers waiting on this instruction's result. */
    std::vector<InstSeqNum> waiters;

    bool isLoad() const { return isa::isLoad(inst.op); }
    bool isStore() const { return isa::isStore(inst.op); }
    bool isCondBranch() const { return isa::isCondBranch(inst.op); }
};

} // namespace tcsim::core

#endif // TCSIM_CORE_DYNINST_H
