#include "sim/processor.h"

#include <algorithm>
#include <cstdlib>
#include <cstdio>
#include <istream>
#include <ostream>

#include "common/binio.h"
#include "common/fnv.h"
#include "common/log.h"
#include "core/rename_overlay.h"

namespace tcsim::sim
{

using core::DynInst;
using isa::Opcode;
using workload::FunctionalExecutor;

namespace
{

/** Hard per-run cycle budget multiplier (hang detection). */
constexpr std::uint64_t kMaxCyclesPerInst = 200;

} // namespace

Processor::Processor(const ProcessorConfig &config,
                     const workload::Program &program)
    : config_(config), program_(program), hierarchy_(config.hierarchy),
      window_(config.robEntries), nodeTables_(config.nodeTables),
      parkedUnits_(config.nodeTables.numUnits)
{
    if (config_.useTraceCache) {
        traceCache_ = std::make_unique<trace::TraceCache>(
            config_.traceCache);
        fillUnit_ = std::make_unique<trace::FillUnit>(config_.fillUnit,
                                                      *traceCache_);
        if (config_.mbpKind == MbpKind::Tree)
            mbp_ = std::make_unique<bpred::TreeMbp>();
        else
            mbp_ = std::make_unique<bpred::SplitMbp>();
    } else {
        hybrid_ = std::make_unique<bpred::HybridPredictor>();
    }

    fetch::FetchEngineParams fe_params;
    fe_params.useTraceCache = config_.useTraceCache;
    fe_params.fetchWidth = config_.fetchWidth;
    fe_params.partialMatching = config_.partialMatching;
    fe_params.inactiveIssue = config_.inactiveIssue;
    fe_params.pathAssociativity = config_.traceCache.pathAssociativity;
    fetchEngine_ = std::make_unique<fetch::FetchEngine>(
        fe_params, program_, traceCache_.get(), hierarchy_.icache(),
        mbp_.get(), hybrid_.get(), frontEnd_);

    oracle_ = std::make_unique<FunctionalExecutor>(program_);
    memory_.initFrom(program_);
    archRegs_[2] = workload::kStackTop; // matches FunctionalExecutor

    memDepTable_.assign(4096, 0);
    oracleRing_.resize(1024); // power of two; grows by doubling
    loadAddrIndex_.resize(kAddrIndexBuckets);
    storeAddrIndex_.resize(kAddrIndexBuckets);
    verifyIndexed_ = std::getenv("TCSIM_VERIFY_WINDOW_INDEX") != nullptr;
    fetchPc_ = program_.entry();
}

std::uint32_t
Processor::memDepIndex(Addr pc) const
{
    return static_cast<std::uint32_t>(pc / isa::kInstBytes) & 4095u;
}

bool
Processor::memDepPredictsConflict(Addr pc) const
{
    return memDepTable_[memDepIndex(pc)] >= 2;
}

void
Processor::recordMemDepViolation(Addr load_pc)
{
    std::uint8_t &counter = memDepTable_[memDepIndex(load_pc)];
    if (counter < 3)
        ++counter;
    ++memOrderViolations_;
    invalidateBlockedVerdicts(); // Speculative's bypass test may flip
}

void
Processor::checkStoreOrderViolation(core::DynInst &store)
{
    // A store just resolved its address: any younger load to the same
    // address that already executed consumed stale data and must
    // replay (memory-order violation).
    const DynInst *violator = oldestViolatingLoadAfter(store);
    if (verifyIndexed_) {
        TCSIM_ASSERT(violator == slowOldestViolatingLoadAfter(store),
                     "indexed violation check diverges from reference "
                     "scan (store seq %llu)",
                     static_cast<unsigned long long>(store.seq));
    }
    if (violator == nullptr)
        return;

    recordMemDepViolation(violator->pc);
    TCSIM_TPOINT(tracer_, Core, "violation",
                 "store_pc=0x%llx addr=0x%llx load_pc=0x%llx",
                 static_cast<unsigned long long>(store.pc),
                 static_cast<unsigned long long>(store.memAddr),
                 static_cast<unsigned long long>(violator->pc));

    // Replay from the violating load: keep its predecessor.
    RecoveryRequest req;
    req.originSeq = store.seq;
    req.redirect = violator->pc;
    req.cause = CycleCategory::BranchMisses;
    req.keepSeq = 0;
    const std::size_t pos = window_.lowerBound(violator->seq);
    if (pos != 0)
        req.keepSeq = window_.at(pos - 1).seq;
    if (verifyIndexed_) {
        TCSIM_ASSERT(req.keepSeq == slowKeepSeqBefore(violator->seq),
                     "binary-search keepSeq diverges from reference scan");
    }
    requestRecovery(req);
}

Processor::~Processor() = default;

// ----------------------------------------------------------------------
// Oracle.
// ----------------------------------------------------------------------

void
Processor::growOracleRing()
{
    // Double the ring and re-place the live span by the new mask.
    std::vector<workload::StepResult> bigger(oracleRing_.size() * 2);
    const std::uint64_t new_mask = bigger.size() - 1;
    const std::uint64_t old_mask = oracleRing_.size() - 1;
    for (std::uint64_t i = 0; i < oracleCount_; ++i) {
        const std::uint64_t idx = oracleBase_ + i;
        bigger[idx & new_mask] = oracleRing_[idx & old_mask];
    }
    oracleRing_ = std::move(bigger);
}

void
Processor::extendOracle(std::uint64_t upto_idx)
{
    while (oracleBase_ + oracleCount_ <= upto_idx) {
        if (oracleCount_ == oracleRing_.size())
            growOracleRing();
        const std::uint64_t idx = oracleBase_ + oracleCount_;
        oracle_->step(oracleRing_[idx & (oracleRing_.size() - 1)]);
        ++oracleCount_;
    }
}

const workload::StepResult &
Processor::oracleAt(std::uint64_t idx)
{
    TCSIM_ASSERT(idx >= oracleBase_, "oracle entry already trimmed");
    extendOracle(idx);
    return oracleRing_[idx & (oracleRing_.size() - 1)];
}

// ----------------------------------------------------------------------
// Window-indexed lookups.
//
// Window positions are in ascending seq order but seqs have gaps
// (allocation skips seqs after a squash, see core::InstRing), so
// positioning is O(log n) binary search. Address lookups go
// through small hashed seq-list buckets; membership invariants:
//   loadAddrIndex_   = fired, un-retired loads (keyed by memAddr)
//   storeAddrIndex_  = address-known, un-retired stores
//   unknownStores_   = dispatched stores whose address is unresolved
//   checkpointStack_ = active block-ending branches, ascending
// maintained at dispatch, address resolution, salvage activation,
// squash, and retire.
// ----------------------------------------------------------------------

std::uint32_t
Processor::addrBucket(Addr addr)
{
    // Fibonacci hash of the word address.
    return static_cast<std::uint32_t>(
               (addr * 0x9e3779b97f4a7c15ull) >> 32) &
           (kAddrIndexBuckets - 1);
}

void
Processor::addrIndexInsert(std::vector<std::vector<InstSeqNum>> &index,
                           Addr addr, InstSeqNum seq)
{
    index[addrBucket(addr)].push_back(seq);
}

void
Processor::addrIndexRemove(std::vector<std::vector<InstSeqNum>> &index,
                           Addr addr, InstSeqNum seq)
{
    std::vector<InstSeqNum> &bucket = index[addrBucket(addr)];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
        if (bucket[i] == seq) {
            bucket[i] = bucket.back();
            bucket.pop_back(); // capacity kept: no steady-state alloc
            return;
        }
    }
    TCSIM_ASSERT(false, "seq %llu missing from address index",
                 static_cast<unsigned long long>(seq));
}

void
Processor::unknownStoreResolved(InstSeqNum seq)
{
    const auto it =
        std::lower_bound(unknownStores_.begin(), unknownStores_.end(), seq);
    TCSIM_ASSERT(it != unknownStores_.end() && *it == seq,
                 "resolved store missing from unknown-store list");
    unknownStores_.erase(it);
}

const DynInst *
Processor::oldestViolatingLoadAfter(const DynInst &store) const
{
    // Visibility filter matches the reference scan: discarded never,
    // inactive only within the store's own fetch group.
    const DynInst *violator = nullptr;
    for (const InstSeqNum seq : loadAddrIndex_[addrBucket(store.memAddr)]) {
        if (seq <= store.seq)
            continue;
        if (violator != nullptr && seq >= violator->seq)
            continue;
        const DynInst *cand = window_.find(seq);
        TCSIM_ASSERT(cand != nullptr, "stale load-index entry");
        if (cand->memAddr != store.memAddr)
            continue; // bucket collision
        if (cand->discarded)
            continue;
        if (!cand->active && cand->fetchGroup != store.fetchGroup)
            continue;
        violator = cand;
    }
    return violator;
}

const DynInst *
Processor::youngestMatchingStoreBefore(const DynInst &load) const
{
    const DynInst *match = nullptr;
    for (const InstSeqNum seq : storeAddrIndex_[addrBucket(load.memAddr)]) {
        if (seq >= load.seq)
            continue;
        if (match != nullptr && seq <= match->seq)
            continue;
        const DynInst *store = window_.find(seq);
        TCSIM_ASSERT(store != nullptr, "stale store-index entry");
        if (store->memAddr != load.memAddr)
            continue; // bucket collision
        if (store->discarded)
            continue;
        if (!store->active && store->fetchGroup != load.fetchGroup)
            continue;
        match = store;
    }
    return match;
}

bool
Processor::loadMayProceed(const DynInst &load, InstSeqNum &blocked_by) const
{
    // The reference scan walks older stores youngest-first and acts on
    // the first *event*: a matching known-address store (wait if its
    // data is not ready, else forward and stop) or a blocking
    // unknown-address store (policy-dependent). Reproduce that by
    // finding each candidate event's seq and comparing. A "blocked"
    // verdict names the store that decided it in @p blocked_by.
    const DynInst *match = youngestMatchingStoreBefore(load);

    // Youngest older visible unknown-address store that blocks under
    // the active policy. Conservative waits on any. Speculative lets
    // an active load with no conflict history bypass them all; an
    // inactively issued load stays conservative (a salvaged stale
    // value would bypass the violation check). Perfect "knows" the
    // eventual addresses and waits only on stores that will alias.
    const Disambiguation policy = config_.disambiguation;
    const bool bypass_unknown = policy == Disambiguation::Speculative &&
                                load.active &&
                                !memDepPredictsConflict(load.pc);
    const DynInst *blocker = nullptr;
    if (!bypass_unknown) {
        for (auto it = std::lower_bound(unknownStores_.begin(),
                                        unknownStores_.end(), load.seq);
             it != unknownStores_.begin();) {
            --it;
            const DynInst *store = window_.find(*it);
            TCSIM_ASSERT(store != nullptr, "stale unknown-store entry");
            if (store->discarded)
                continue;
            if (!store->active && store->fetchGroup != load.fetchGroup)
                continue;
            if (policy == Disambiguation::Perfect &&
                (store->oracleMemAddr == kInvalidAddr ||
                 store->oracleMemAddr != load.memAddr))
                continue; // known non-aliasing
            blocker = store;
            break;
        }
    }

    if (blocker != nullptr &&
        (match == nullptr || blocker->seq > match->seq)) {
        blocked_by = blocker->seq; // the blocking unknown store is first
        return false;
    }
    if (match != nullptr && !match->executed) {
        blocked_by = match->seq; // matching store, data not yet ready
        return false;
    }
    return true;
}

// ----------------------------------------------------------------------
// Cached blocked-load verdicts.
//
// A blocked verdict is decided by one store B (blocked_by above). Every
// store between B and the load was a non-event for it, and stays one
// until it changes state, so the verdict can only flip on a store event
// with seq in [B, load): address resolution, execution, or discard.
// Salvage activation and memory-dependence counter bumps change global
// inputs and invalidate every verdict. Squash and retire cannot flip
// one: B retires only after executing, and squashing B squashes the
// load too.
// ----------------------------------------------------------------------

void
Processor::logStoreEvent(InstSeqNum seq)
{
    storeEventLog_[storeEvents_ & (kStoreEventLogSize - 1)] = seq;
    ++storeEvents_;
}

void
Processor::invalidateBlockedVerdicts()
{
    storeEvents_ += kStoreEventLogSize;
}

bool
Processor::blockedVerdictHolds(const DynInst &load,
                               const core::ReadyEntry &entry) const
{
    if (entry.blockedBy == kInvalidSeqNum ||
        storeEvents_ - entry.checkedAt >= kStoreEventLogSize)
        return false; // no verdict, or the log wrapped since
    for (std::uint64_t i = entry.checkedAt; i < storeEvents_; ++i) {
        const InstSeqNum seq =
            storeEventLog_[i & (kStoreEventLogSize - 1)];
        if (seq >= entry.blockedBy && seq < load.seq)
            return false;
    }
    return true;
}

// ----------------------------------------------------------------------
// Reference implementations: the original O(window) scans, kept as
// ground truth. TCSIM_VERIFY_WINDOW_INDEX=1 runs them beside every
// indexed lookup and asserts agreement.
// ----------------------------------------------------------------------

const DynInst *
Processor::slowOldestViolatingLoadAfter(const DynInst &store) const
{
    const DynInst *violator = nullptr;
    for (std::size_t pos = window_.size(); pos-- > 0;) {
        const DynInst &cand = window_.at(pos);
        if (cand.seq <= store.seq)
            break;
        if (cand.discarded)
            continue;
        if (!cand.active && cand.fetchGroup != store.fetchGroup)
            continue;
        if (cand.isLoad() && cand.fired && cand.memAddr == store.memAddr)
            violator = &cand; // keep scanning: want the oldest violator
    }
    return violator;
}

InstSeqNum
Processor::slowKeepSeqBefore(InstSeqNum seq) const
{
    for (std::size_t pos = window_.size(); pos-- > 0;) {
        if (window_.at(pos).seq < seq)
            return window_.at(pos).seq;
    }
    return 0;
}

bool
Processor::slowLoadDisambiguation(const DynInst &load) const
{
    for (auto it = storeQueue_.rbegin(); it != storeQueue_.rend(); ++it) {
        if (*it >= load.seq)
            continue;
        const DynInst *store = window_.find(*it);
        if (store == nullptr || store->discarded)
            continue;
        if (!store->active && store->fetchGroup != load.fetchGroup)
            continue;
        if (store->memAddrKnown) {
            if (store->memAddr == load.memAddr && !store->executed)
                return false;
            if (store->memAddr == load.memAddr)
                break;
            continue;
        }
        if (config_.disambiguation == Disambiguation::Conservative)
            return false;
        if (config_.disambiguation == Disambiguation::Speculative) {
            if (!load.active || memDepPredictsConflict(load.pc))
                return false;
            continue;
        }
        if (store->oracleMemAddr != kInvalidAddr &&
            store->oracleMemAddr == load.memAddr) {
            return false;
        }
    }
    return true;
}

const DynInst *
Processor::slowForwardingStore(const DynInst &load) const
{
    for (auto it = storeQueue_.rbegin(); it != storeQueue_.rend(); ++it) {
        if (*it >= load.seq)
            continue;
        const DynInst *store = window_.find(*it);
        if (store == nullptr || store->discarded)
            continue;
        if (!store->active && store->fetchGroup != load.fetchGroup)
            continue;
        if (store->memAddrKnown && store->memAddr == load.memAddr)
            return store;
    }
    return nullptr;
}

const DynInst *
Processor::slowPreviousCheckpointFor(const DynInst &inst) const
{
    for (std::size_t pos = window_.size(); pos-- > 0;) {
        const DynInst &cand = window_.at(pos);
        if (cand.seq >= inst.seq || !cand.active || cand.discarded)
            continue;
        if (cand.endsBlock || cand.fetchGroup != inst.fetchGroup)
            return &cand;
    }
    return nullptr;
}

const DynInst *
Processor::previousCheckpointFor(const DynInst &inst) const
{
    // The previous checkpoint is the youngest older instruction that
    // either ends a block or belongs to an older fetch group. Two
    // indexed candidates cover both cases:
    //  - s: the youngest checkpoint-stack entry below inst.seq (an
    //    active block-ending branch; stack entries are never
    //    discarded because discard only targets inactive suffixes);
    //  - c: the youngest active non-discarded instruction below the
    //    faulting fetch group's first seq (groups dispatch
    //    atomically, so seq < groupStartSeq <=> older group).
    // Any in-group candidate from the reference scan must end a block
    // (same group => the endsBlock clause), so it is on the stack; any
    // older-group candidate is bounded above by c. The reference scan
    // returns the youngest of all candidates = max(s, c).
    const DynInst *best = nullptr;
    {
        const auto it = std::lower_bound(checkpointStack_.begin(),
                                         checkpointStack_.end(), inst.seq);
        if (it != checkpointStack_.begin()) {
            best = window_.find(*std::prev(it));
            TCSIM_ASSERT(best != nullptr, "stale checkpoint-stack entry");
        }
    }
    TCSIM_ASSERT(inst.groupStartSeq != kInvalidSeqNum);
    for (std::size_t pos = window_.lowerBound(inst.groupStartSeq);
         pos-- > 0;) {
        const DynInst &cand = window_.at(pos);
        if (best != nullptr && cand.seq <= best->seq)
            break; // the stack candidate is younger
        if (cand.active && !cand.discarded) {
            best = &cand;
            break;
        }
    }
    return best;
}

// ----------------------------------------------------------------------
// Fetch.
// ----------------------------------------------------------------------

void
Processor::classifyFetchBatch(PendingBatch &pending)
{
    const fetch::FetchBatch &batch = pending.batch;
    pending.wasOnPath = onTruePath_;
    pending.oracleStart = oracleFetchIdx_;
    pending.correctPrefix = 0;
    if (!onTruePath_)
        return;

    const unsigned size = static_cast<unsigned>(batch.insts.size());
    extendOracle(oracleFetchIdx_ + size);

    unsigned k = 0;
    while (k < size &&
           oracleAt(oracleFetchIdx_ + k).pc == batch.insts[k].pc) {
        ++k;
    }
    pending.correctPrefix = k;
    TCSIM_ASSERT(k >= 1, "on-path fetch must match at least one inst");

    const bool stays_on =
        batch.nextFetchPc == oracleAt(oracleFetchIdx_ + k).pc;

    // Fetch-size histogram with termination reason (Figures 4/6).
    FetchReason reason;
    const fetch::FetchedInst &steer =
        batch.insts[std::min(k, size) - 1];
    if (batch.source == fetch::FetchSource::ICache) {
        if (!stays_on) {
            reason = FetchReason::MispredBR;
        } else if (size >= config_.fetchWidth) {
            reason = FetchReason::MaxSize;
        } else {
            reason = FetchReason::ICache;
        }
    } else {
        if (!stays_on) {
            if (isa::isReturn(steer.inst.op) ||
                isa::isIndirectJump(steer.inst.op)) {
                reason = FetchReason::RetIndirTrap;
            } else {
                reason = FetchReason::MispredBR;
            }
        } else if (k < size) {
            reason = FetchReason::PartialMatch;
        } else {
            switch (batch.segmentReason) {
              case trace::FillReason::MaxSize:
                reason = FetchReason::MaxSize;
                break;
              case trace::FillReason::MaxBranches:
                reason = FetchReason::MaximumBRs;
                break;
              case trace::FillReason::AtomicBlock:
              case trace::FillReason::Resync:
                reason = FetchReason::AtomicBlocks;
                break;
              case trace::FillReason::RetIndirTrap:
              default:
                reason = FetchReason::RetIndirTrap;
                break;
            }
        }
    }
    accounting_.usefulFetch(k, reason);
    ++fetchesNeedingPreds_[std::min<unsigned>(batch.predictionsUsed, 3)];
    predictionsUsedSum_ += batch.predictionsUsed;

    oracleFetchIdx_ += k;
    if (!stays_on) {
        onTruePath_ = false;
        offPathCause_ = (isa::isReturn(steer.inst.op) ||
                         isa::isIndirectJump(steer.inst.op))
                            ? CycleCategory::Misfetches
                            : CycleCategory::BranchMisses;
    }
}

void
Processor::fetchStage()
{
    if (serializeStall_) {
        accounting_.cycle(CycleCategory::Traps);
        return;
    }
    if (icacheStallUntil_ > cycle_) {
        accounting_.cycle(onTruePath_ ? CycleCategory::CacheMisses
                                      : offPathCause_);
        return;
    }

    // Structural stalls: queue space, ROB headroom, checkpoint pool.
    const bool queue_full = fetchQueue_.size() >= config_.fetchQueueBatches;
    const bool rob_full =
        window_.size() + config_.fetchWidth > config_.robEntries;
    const bool ckpt_full =
        outstandingCheckpoints_ + trace::kMaxSegmentBranches >
        config_.checkpoints;
    if (queue_full || rob_full || ckpt_full) {
        accounting_.cycle(onTruePath_ ? CycleCategory::FullWindow
                                      : offPathCause_);
        return;
    }

    const bool was_on = onTruePath_;
    fetchEngine_->fetchCycle(fetchPc_, scratchBatch_, cycle_);

    if (scratchBatch_.icacheStall > 0) {
        icacheStallUntil_ = cycle_ + scratchBatch_.icacheStall;
        accounting_.cycle(was_on ? CycleCategory::CacheMisses
                                 : offPathCause_);
        return;
    }

    TCSIM_ASSERT(!scratchBatch_.insts.empty(),
                 "fetch produced neither stall nor instructions");

    PendingBatch pending;
    pending.batch = std::move(scratchBatch_);
    if (batchPool_.empty()) {
        scratchBatch_ = fetch::FetchBatch{};
    } else {
        scratchBatch_ = std::move(batchPool_.back());
        batchPool_.pop_back();
    }
    if (fillUnit_ != nullptr &&
        pending.batch.source == fetch::FetchSource::ICache) {
        fillUnit_->noteFetchMiss(fetchPc_);
    }
    pending.group = nextFetchGroup_++;
    pending.fetchCycle = cycle_;
    classifyFetchBatch(pending);

    fetchPc_ = pending.batch.nextFetchPc;
    if (pending.batch.sawSerialize)
        serializeStall_ = true;

    const bool useful = was_on && pending.correctPrefix > 0;
    accounting_.cycle(useful ? CycleCategory::UsefulFetch
                             : offPathCause_);
    fetchQueue_.push_back(std::move(pending));
}

// ----------------------------------------------------------------------
// Dispatch (issue stage: rename into node tables).
// ----------------------------------------------------------------------

void
Processor::dispatchStage()
{
    if (fetchQueue_.empty())
        return;
    PendingBatch &pb = fetchQueue_.front();
    const std::size_t batch_size = pb.batch.insts.size();

    // Whole batches dispatch atomically so trace-segment groups stay
    // contiguous in the window (inactive-issue salvage relies on it).
    if (window_.size() + batch_size > config_.robEntries)
        return;
    const std::uint32_t rs_capacity =
        nodeTables_.numUnits() * config_.nodeTables.entriesPerUnit;
    if (nodeTables_.totalOccupied() + batch_size > rs_capacity)
        return;

    // Inactive-issue shadow rename context: a copy-on-write overlay
    // over rat_ instead of a full RAT copy on fork (the tail beyond a
    // divergence touches only a few registers).
    core::RenameOverlay<RatEntry, isa::kNumArchRegs> shadow;
    InstSeqNum group_start = kInvalidSeqNum;

    for (std::size_t i = 0; i < batch_size; ++i) {
        const fetch::FetchedInst &fi = pb.batch.insts[i];
        DynInst &di = window_.allocate(fi);
        if (i == 0)
            group_start = di.seq; // allocation may skip seqs
        di.fetchGroup = pb.group;
        di.groupStartSeq = group_start;
        di.fetchCycle = pb.fetchCycle;
        di.source = pb.batch.source;

        di.onCorrectPath = pb.wasOnPath && i < pb.correctPrefix;
        if (di.onCorrectPath) {
            di.oracleIdx = pb.oracleStart + i;
            const workload::StepResult &step = oracleAt(di.oracleIdx);
            di.oracleMemAddr = step.memAddr;
        }

        // Inactive-issue shadow rename context.
        const bool use_shadow = !fi.active;
        if (use_shadow && !shadow.active())
            shadow.fork(rat_);

        // Source renaming.
        const bool reads[2] = {isa::readsRs1(fi.inst),
                               isa::readsRs2(fi.inst)};
        const RegIndex regs[2] = {fi.inst.rs1, fi.inst.rs2};
        for (unsigned op = 0; op < 2; ++op) {
            di.srcReady[op] = true;
            di.srcVal[op] = 0;
            if (!reads[op] || regs[op] == isa::kRegZero)
                continue;
            const RatEntry &entry = use_shadow ? shadow.get(regs[op])
                                               : rat_[regs[op]];
            if (entry.isValue) {
                di.srcVal[op] = entry.value;
            } else {
                DynInst *producer = window_.find(entry.tag);
                TCSIM_ASSERT(producer != nullptr,
                             "RAT tag without live producer");
                if (producer->executed) {
                    di.srcVal[op] = producer->result;
                } else {
                    di.srcReady[op] = false;
                    di.srcDep[op] = entry.tag;
                    producer->waiters.push_back(di.seq);
                }
            }
        }

        // Destination renaming.
        if (isa::writesReg(fi.inst)) {
            const RatEntry renamed{false, 0, di.seq};
            if (use_shadow)
                shadow.set(fi.inst.rd, renamed);
            else
                rat_[fi.inst.rd] = renamed;
        }

        // Resources.
        const bool allocated = nodeTables_.allocate(di.rsTable);
        TCSIM_ASSERT(allocated, "node table allocation must succeed");
        if (di.isStore()) {
            storeQueue_.push_back(di.seq);
            unknownStores_.push_back(di.seq); // dispatch order: sorted
        }
        if (di.endsBlock) {
            ++outstandingCheckpoints_;
            if (di.active)
                checkpointStack_.push_back(di.seq);
        }

        di.readyCycle = cycle_ + 1;
        if (operandsReady(di))
            enqueueReady(di);
    }

    batchPool_.push_back(std::move(pb.batch));
    fetchQueue_.pop_front();
}

bool
Processor::operandsReady(const DynInst &inst) const
{
    return inst.srcReady[0] && inst.srcReady[1];
}

void
Processor::enqueueReady(DynInst &inst)
{
    if (inst.inReadyQueue || inst.fired)
        return;
    inst.inReadyQueue = true;
    nodeTables_.markReady(inst.rsTable, inst.seq);
}

// ----------------------------------------------------------------------
// Schedule + execute.
// ----------------------------------------------------------------------

void
Processor::executeInst(DynInst &inst)
{
    RegVal result = 0;
    Addr next_pc = 0;
    bool taken = false;
    FunctionalExecutor::computeResult(inst.inst, inst.pc, inst.srcVal[0],
                                      inst.srcVal[1], inst.result, result,
                                      next_pc, taken);
    // For loads inst.result was preloaded with the memory value by
    // tryScheduleMemory; computeResult passes it through.
    inst.result = result;
    inst.taken = taken;
    inst.actualNextPc = next_pc;
}

RegVal
Processor::loadValueFor(DynInst &load, bool &forwarded)
{
    forwarded = false;
    // The youngest older visible matching store forwards its data.
    const DynInst *store = youngestMatchingStoreBefore(load);
    if (verifyIndexed_) {
        TCSIM_ASSERT(store == slowForwardingStore(load),
                     "indexed forwarding diverges from reference scan "
                     "(load seq %llu)",
                     static_cast<unsigned long long>(load.seq));
    }
    if (store != nullptr) {
        if (!store->executed) {
            // Matching but data not ready: caller must not be here.
            panic("loadValueFor called while blocked");
        }
        forwarded = true;
        return store->storeData;
    }
    return memory_.load(load.memAddr);
}

bool
Processor::tryScheduleMemory(DynInst &inst, core::ReadyEntry &entry)
{
    if (inst.isStore()) {
        inst.memAddr =
            FunctionalExecutor::effectiveAddr(inst.inst, inst.srcVal[0]);
        inst.memAddrKnown = true;
        inst.storeData = inst.srcVal[1];
        inst.completeCycle = cycle_ + config_.latAddrGen;
        // Address resolution: move the store from the unknown list
        // into the address index (runs once: the store fires after
        // this and never re-disambiguates).
        unknownStoreResolved(inst.seq);
        addrIndexInsert(storeAddrIndex_, inst.memAddr, inst.seq);
        logStoreEvent(inst.seq);
        if (config_.disambiguation == Disambiguation::Speculative)
            checkStoreOrderViolation(inst);
        return true;
    }

    TCSIM_ASSERT(inst.isLoad());
    inst.memAddr =
        FunctionalExecutor::effectiveAddr(inst.inst, inst.srcVal[0]);

    // Disambiguate against older visible stores (the policies are
    // described in loadMayProceed). A load blocked on an earlier
    // attempt keeps that verdict until a store event could flip it.
    bool proceed = false;
    if (!blockedVerdictHolds(inst, entry))
        proceed = loadMayProceed(inst, entry.blockedBy);
    entry.checkedAt = storeEvents_;
    if (verifyIndexed_) {
        TCSIM_ASSERT(proceed == slowLoadDisambiguation(inst),
                     "indexed disambiguation diverges from reference "
                     "scan (load seq %llu)",
                     static_cast<unsigned long long>(inst.seq));
    }
    if (!proceed)
        return false;

    bool forwarded = false;
    const RegVal value = loadValueFor(inst, forwarded);
    inst.result = value;

    std::uint32_t latency = config_.latAddrGen;
    if (forwarded) {
        latency += 1;
    } else {
        latency += config_.latDCacheHit +
                   hierarchy_.dcache().access(inst.memAddr, false, cycle_);
    }
    inst.completeCycle = cycle_ + latency;
    return true;
}

// Each unit starts at most one operation per cycle and makes at most
// kScheduleAttempts attempts to find it. An entry that cannot fire yet
// goes to the back of the queue.
constexpr unsigned kScheduleAttempts = 8;

bool
Processor::scheduleUnit(core::ReadyRing &queue)
{
    unsigned attempts = 0;
    unsigned blocked = 0; // first visits that disambiguation blocked
    bool stale = false;
    while (!queue.empty() && attempts < kScheduleAttempts) {
        core::ReadyEntry &entry = queue.front();
        DynInst *di = window_.find(entry.seq);
        if (di == nullptr || di->fired || !di->inReadyQueue) {
            queue.pop_front();
            stale = true;
            continue; // stale or already handled
        }
        if (di->readyCycle > cycle_) {
            queue.rotate(1);
            ++attempts;
            continue;
        }

        if (isa::isMem(di->inst.op)) {
            if (!tryScheduleMemory(*di, entry)) {
                di->readyCycle = cycle_ + 1;
                queue.rotate(1);
                ++attempts;
                ++blocked;
                continue;
            }
        } else {
            std::uint32_t latency;
            switch (isa::instClass(di->inst.op)) {
              case isa::InstClass::IntMult:
                latency = config_.latIntMult;
                break;
              case isa::InstClass::IntDiv:
                latency = config_.latIntDiv;
                break;
              default:
                latency = config_.latIntAlu;
                break;
            }
            di->completeCycle = cycle_ + latency;
        }
        queue.pop_front();

        if (di->isLoad()) {
            // Result (the loaded value) was set by
            // tryScheduleMemory; keep it for completion.
        } else {
            executeInst(*di);
        }

        di->fired = true;
        if (di->isLoad()) {
            // Fired loads enter the violation-check index.
            addrIndexInsert(loadAddrIndex_, di->memAddr, di->seq);
        }
        di->inReadyQueue = false;
        nodeTables_.release(di->rsTable);
        completionHeap_.emplace_back(di->completeCycle, di->seq);
        std::push_heap(completionHeap_.begin(), completionHeap_.end(),
                       std::greater<>());
        return false; // this unit started its one op for the cycle
    }
    // Park when the pass used every attempt and each of the n entries
    // still queued was a load whose first visit disambiguation blocked
    // (a blocked load is pushed back with readyCycle = cycle_ + 1, so
    // it is visited at most once per pass that way; n <= 8 follows).
    return attempts == kScheduleAttempts && !stale &&
           blocked == queue.size();
}

// A parked unit's next pass is known while no store event, push into
// the unit or squash has happened since the pass that parked it: every
// entry is a live load whose cached blocked verdict still holds
// (blockedVerdictHolds scans an empty event range), so the pass fires
// nothing, changes no verdict and turns the queue by 8 mod n. The
// parked path only turns the queue; it skips the readyCycle = cycle_ + 1
// writes, which only this loop reads and which a parked load's next
// visit, in a later cycle, would pass anyway. Verify mode runs the
// ordinary pass instead and asserts that outcome.
void
Processor::scheduleStage()
{
    for (std::uint32_t unit = 0; unit < nodeTables_.numUnits(); ++unit) {
        const auto u = static_cast<std::uint8_t>(unit);
        core::ReadyRing &queue = nodeTables_.readyQueue(u);
        ParkedUnit &park = parkedUnits_[unit];
        if (park.parked && park.storeEvents == storeEvents_ &&
            park.pushes == nodeTables_.pushes(u) &&
            park.squashedInsts == squashedInsts_) {
            if (!verifyIndexed_) {
                queue.rotate(kScheduleAttempts);
                continue;
            }
            core::ReadyRing expected = queue;
            expected.rotate(kScheduleAttempts);
            TCSIM_ASSERT(scheduleUnit(queue),
                         "parked unit %u did not stay parked", unit);
            TCSIM_ASSERT(queue.size() == expected.size());
            for (std::size_t i = 0; i < expected.size(); ++i) {
                TCSIM_ASSERT(queue[i] == expected[i],
                             "parked unit %u turned its queue out of "
                             "order",
                             unit);
            }
            continue;
        }
        park.parked = scheduleUnit(queue);
        park.storeEvents = storeEvents_;
        park.pushes = nodeTables_.pushes(u);
        park.squashedInsts = squashedInsts_;
    }
}

// ----------------------------------------------------------------------
// Complete (writeback): broadcast results, resolve control.
// ----------------------------------------------------------------------

void
Processor::wakeDependents(DynInst &producer)
{
    for (const InstSeqNum waiter_seq : producer.waiters) {
        DynInst *consumer = window_.find(waiter_seq);
        if (consumer == nullptr)
            continue;
        bool changed = false;
        for (unsigned op = 0; op < 2; ++op) {
            if (!consumer->srcReady[op] &&
                consumer->srcDep[op] == producer.seq) {
                consumer->srcReady[op] = true;
                consumer->srcVal[op] = producer.result;
                changed = true;
            }
        }
        if (changed && operandsReady(*consumer) && !consumer->fired) {
            consumer->readyCycle = std::max(consumer->readyCycle, cycle_);
            enqueueReady(*consumer);
        }
    }
    producer.waiters.clear();
}

void
Processor::resolveControl(DynInst &inst)
{
    if (!inst.active || inst.discarded)
        return;

    const Opcode op = inst.inst.op;

    if (isa::isCondBranch(op)) {
        if (inst.promoted) {
            if (inst.taken != inst.followedDir) {
                // Promoted-branch fault: back up to the previous
                // fetch-block checkpoint (or the retire boundary) and
                // refetch with a direction override.
                inst.resolvedFault = true;
                ++promotedFaults_;
                TCSIM_TPOINT(tracer_, Bpred, "fault",
                             "pc=0x%llx seq=%llu taken=%d",
                             static_cast<unsigned long long>(inst.pc),
                             static_cast<unsigned long long>(inst.seq),
                             inst.taken ? 1 : 0);

                RecoveryRequest req;
                req.originSeq = inst.seq;
                req.cause = CycleCategory::BranchMisses;
                req.countResolution = true;
                req.predictedCycle = inst.fetchCycle;
                req.overrideValid = true;
                req.overridePc = inst.pc;
                req.overrideDir = inst.taken;

                // Find the previous checkpoint among older in-flight
                // instructions: the nearest block-ending branch, or
                // failing that the boundary of the faulting fetch
                // group (the machine checkpoints each fetch block it
                // supplies, so a group boundary is always one).
                const DynInst *checkpoint = previousCheckpointFor(inst);
                if (verifyIndexed_) {
                    TCSIM_ASSERT(
                        checkpoint == slowPreviousCheckpointFor(inst),
                        "checkpoint stack diverges from reference scan "
                        "(fault seq %llu)",
                        static_cast<unsigned long long>(inst.seq));
                }
                if (checkpoint != nullptr) {
                    req.keepSeq = checkpoint->seq;
                    req.redirect = checkpoint->followedNextPc;
                } else {
                    // The faulting group is the oldest in flight:
                    // back up to the retire boundary and refetch from
                    // the group's first surviving instruction.
                    req.keepSeq = 0;
                    req.redirect = inst.pc;
                    for (std::size_t pos = 0; pos < window_.size(); ++pos) {
                        const DynInst &cand = window_.at(pos);
                        if (cand.active && !cand.discarded) {
                            req.redirect = cand.pc;
                            break;
                        }
                    }
                }
                // The replay refetches any earlier dynamic instances
                // of this PC; the override must pass over them and hit
                // exactly the faulting instance.
                for (std::size_t pos = window_.lowerBound(req.keepSeq + 1);
                     pos < window_.size(); ++pos) {
                    const DynInst &prior = window_.at(pos);
                    if (prior.seq >= inst.seq)
                        break;
                    if (prior.pc == inst.pc && prior.isCondBranch() &&
                        prior.active && !prior.discarded) {
                        ++req.overrideSkip;
                    }
                }
                requestRecovery(req);
            } else if (inst.followedDir != inst.embeddedTaken) {
                // An override flipped this promoted branch off the
                // segment's embedded path and the flip was right: the
                // inactively issued suffix loses.
                discardInactiveSuffix(inst);
            }
            return;
        }

        if (inst.taken != inst.followedDir) {
            inst.resolvedMispredict = true;
            TCSIM_TPOINT(tracer_, Bpred, "mispredict",
                         "pc=0x%llx seq=%llu taken=%d",
                         static_cast<unsigned long long>(inst.pc),
                         static_cast<unsigned long long>(inst.seq),
                         inst.taken ? 1 : 0);
            // The machine now follows the corrected direction; later
            // recoveries that anchor on this branch (promoted faults
            // backing up to the previous checkpoint) must resume on
            // the corrected path.
            inst.followedDir = inst.taken;
            inst.followedNextPc = inst.actualNextPc;

            RecoveryRequest req;
            req.originSeq = inst.seq;
            req.cause = CycleCategory::BranchMisses;
            req.countResolution = true;
            req.predictedCycle = inst.fetchCycle;

            // Inactive-issue salvage: when the segment's embedded path
            // agrees with the actual outcome, the inactively issued
            // suffix of this fetch group is already in the window.
            InstSeqNum last_suffix = kInvalidSeqNum;
            if (inst.endsBlock && inst.taken == inst.embeddedTaken) {
                for (std::size_t pos = window_.lowerBound(inst.seq + 1);
                     pos < window_.size(); ++pos) {
                    const DynInst &cand = window_.at(pos);
                    if (cand.fetchGroup != inst.fetchGroup)
                        break; // groups are contiguous
                    if (!cand.active && !cand.discarded)
                        last_suffix = cand.seq;
                    else
                        break;
                }
            }
            if (last_suffix != kInvalidSeqNum) {
                req.salvage = true;
                req.salvageFrom = inst.seq;
                req.keepSeq = last_suffix;
                req.redirect = kInvalidAddr; // computed during rebuild
            } else {
                req.keepSeq = inst.seq;
                req.redirect = inst.actualNextPc;
            }
            requestRecovery(req);
        } else if (!inst.promoted && inst.endsBlock &&
                   inst.followedDir != inst.embeddedTaken) {
            // Correct prediction that diverged from the segment: the
            // inactively issued suffix loses and is discarded.
            discardInactiveSuffix(inst);
        }
        return;
    }

    if (isa::isReturn(op) || isa::isIndirectJump(op)) {
        if (inst.actualNextPc != inst.followedNextPc) {
            inst.resolvedMisfetch = true;
            inst.followedNextPc = inst.actualNextPc;
            RecoveryRequest req;
            req.originSeq = inst.seq;
            req.keepSeq = inst.seq;
            req.redirect = inst.actualNextPc;
            req.cause = CycleCategory::Misfetches;
            req.countResolution = false;
            requestRecovery(req);
        }
        return;
    }
}

void
Processor::discardInactiveSuffix(const DynInst &inst)
{
    // The inactive instructions right after @p inst in its fetch group
    // (groups are contiguous in the window).
    for (std::size_t pos = window_.lowerBound(inst.seq + 1);
         pos < window_.size(); ++pos) {
        DynInst &cand = window_.at(pos);
        if (cand.fetchGroup != inst.fetchGroup || cand.active)
            break;
        cand.discarded = true;
        if (cand.isStore())
            logStoreEvent(cand.seq);
    }
}

void
Processor::completeStage()
{
    while (!completionHeap_.empty() &&
           completionHeap_.front().first <= cycle_) {
        std::pop_heap(completionHeap_.begin(), completionHeap_.end(),
                      std::greater<>());
        const auto [when, seq] = completionHeap_.back();
        completionHeap_.pop_back();
        (void)when;

        DynInst *di = window_.find(seq);
        if (di == nullptr || di->executed || !di->fired)
            continue; // squashed or stale
        di->executed = true;
        di->resolveCycle = cycle_;
        if (di->isStore())
            logStoreEvent(seq);
        wakeDependents(*di);
        if (isa::isControl(di->inst.op))
            resolveControl(*di);
    }
}

// ----------------------------------------------------------------------
// Recovery.
// ----------------------------------------------------------------------

void
Processor::requestRecovery(const RecoveryRequest &request)
{
    if (recoveryPending_ && recovery_.originSeq <= request.originSeq)
        return; // the architecturally older resolution wins
    recovery_ = request;
    recoveryPending_ = true;
}

void
Processor::squashYoungerThan(InstSeqNum keep_seq)
{
    while (!window_.empty() && window_.back().seq > keep_seq) {
        const DynInst &di = window_.back();
        if (!di.fired)
            nodeTables_.release(di.rsTable);
        if (di.endsBlock) {
            TCSIM_ASSERT(outstandingCheckpoints_ > 0);
            --outstandingCheckpoints_;
        }
        // Unindex before the pop invalidates the seq (unknown stores
        // are bulk-trimmed below, like storeQueue_).
        if (di.isStore()) {
            if (di.memAddrKnown)
                addrIndexRemove(storeAddrIndex_, di.memAddr, di.seq);
        } else if (di.isLoad() && di.fired) {
            addrIndexRemove(loadAddrIndex_, di.memAddr, di.seq);
        }
        window_.popBack();
        ++squashedInsts_;
    }
    while (!storeQueue_.empty() && storeQueue_.back() > keep_seq)
        storeQueue_.pop_back();
    while (!unknownStores_.empty() && unknownStores_.back() > keep_seq)
        unknownStores_.pop_back();
    while (!checkpointStack_.empty() && checkpointStack_.back() > keep_seq)
        checkpointStack_.pop_back();
}

Addr
Processor::rebuildSpeculativeState(const DynInst *tail)
{
    // RAT from architectural values plus surviving in-flight writers.
    for (unsigned r = 0; r < isa::kNumArchRegs; ++r)
        rat_[r] = RatEntry{true, archRegs_[r], kInvalidSeqNum};

    std::uint64_t history = archHistory_;
    std::vector<Addr> &ras = rasScratch_;
    ras.assign(archRas_.begin(), archRas_.end());
    Addr salvage_redirect = kInvalidAddr;
    bool saw_serializer = false;

    for (std::size_t pos = 0; pos < window_.size(); ++pos) {
        DynInst *di = &window_.at(pos);
        if (!di->active || di->discarded)
            continue;

        if (isa::writesReg(di->inst))
            rat_[di->inst.rd] = RatEntry{false, 0, di->seq};
        if (isa::isSerializing(di->inst.op))
            saw_serializer = true;

        const Opcode op = di->inst.op;
        if (isa::isCondBranch(op)) {
            history = (history << 1) |
                      static_cast<std::uint64_t>(di->followedDir);
        } else if (isa::isCall(op)) {
            ras.push_back(di->pc + isa::kInstBytes);
        } else if (isa::isReturn(op)) {
            Addr target = kInvalidAddr;
            if (!ras.empty()) {
                target = ras.back();
                ras.pop_back();
            }
            if (tail != nullptr && di->seq == tail->seq) {
                salvage_redirect = target == kInvalidAddr
                                       ? di->pc + isa::kInstBytes
                                       : target;
                di->followedNextPc = salvage_redirect;
            }
        }

        if (tail != nullptr && di->seq == tail->seq &&
            salvage_redirect == kInvalidAddr) {
            if (isa::isIndirectJump(op)) {
                const Addr predicted = frontEnd_.indirect.predict(di->pc);
                salvage_redirect = predicted == kInvalidAddr
                                       ? di->pc + isa::kInstBytes
                                       : predicted;
                di->followedNextPc = salvage_redirect;
            } else {
                salvage_redirect = di->followedNextPc;
            }
        }
    }

    frontEnd_.history.restore(history);
    // Swap buffers: the front end's old stack becomes next recovery's
    // scratch, so steady-state rebuilds never allocate.
    frontEnd_.ras.assignSwap(ras);
    // Serialization: a surviving in-flight trap keeps fetch stalled.
    serializeStall_ = saw_serializer;
    return salvage_redirect;
}

void
Processor::applyRecovery()
{
    if (!recoveryPending_)
        return;
    recoveryPending_ = false;
    const RecoveryRequest req = recovery_;
    if (DynInst *origin = window_.find(req.originSeq))
        origin->recoveryApplied = true;

    squashYoungerThan(req.keepSeq);
    for (PendingBatch &pb : fetchQueue_)
        batchPool_.push_back(std::move(pb.batch));
    fetchQueue_.clear();

    // Salvage: activate the surviving inactive suffix.
    DynInst *tail = nullptr;
    if (req.salvage) {
        invalidateBlockedVerdicts(); // visibility and load.active change
        for (std::size_t pos = window_.lowerBound(req.salvageFrom + 1);
             pos < window_.size(); ++pos) {
            DynInst &di = window_.at(pos);
            if (!di.active) {
                di.active = true;
                // Newly activated block-ending branches become
                // checkpoints. The squash above already trimmed the
                // stack past keepSeq, so pushes stay sorted.
                if (di.endsBlock)
                    checkpointStack_.push_back(di.seq);
            }
        }
        tail = window_.find(req.keepSeq);
        TCSIM_ASSERT(tail != nullptr, "salvage tail vanished");
    }

    const Addr salvage_redirect = rebuildSpeculativeState(tail);
    Addr redirect = req.redirect;
    if (req.salvage) {
        TCSIM_ASSERT(salvage_redirect != kInvalidAddr);
        redirect = salvage_redirect;
    }

    if (req.overrideValid) {
        frontEnd_.overrides[req.overridePc] =
            fetch::FrontEndState::Override{req.overrideSkip,
                                           req.overrideDir};
    }

    fetchPc_ = redirect;
    icacheStallUntil_ = 0;
    TCSIM_TPOINT(tracer_, Core, "recover",
                 "keep=%llu redirect=0x%llx cause=%d salvage=%d",
                 static_cast<unsigned long long>(req.keepSeq),
                 static_cast<unsigned long long>(redirect),
                 static_cast<int>(req.cause), req.salvage ? 1 : 0);

    // Oracle resynchronization. The resync anchor is the youngest
    // surviving instruction on the followed path: the keep instruction
    // itself may be discarded (memory-order replays can keep a
    // discarded predecessor) or already retired (deferred requests),
    // in which case the anchor falls back to an older survivor or the
    // retire boundary.
    const DynInst *anchor = nullptr;
    if (req.keepSeq != 0) {
        for (std::size_t pos = window_.size(); pos-- > 0;) {
            const DynInst &cand = window_.at(pos);
            if (cand.active && !cand.discarded) {
                anchor = &cand;
                break;
            }
        }
    }
    if (anchor == nullptr) {
        onTruePath_ = redirect == oracleAt(oracleRetireIdx_).pc;
        oracleFetchIdx_ = oracleRetireIdx_;
    } else {
        if (anchor->onCorrectPath &&
            oracleAt(anchor->oracleIdx).nextPc == redirect) {
            onTruePath_ = true;
            oracleFetchIdx_ = anchor->oracleIdx + 1;
        } else {
            onTruePath_ = false;
            offPathCause_ = req.cause;
        }
    }
    if (!onTruePath_)
        offPathCause_ = req.cause;

    // Resolution-time bookkeeping (Figure 15).
    if (req.countResolution) {
        resolutionTimeSum_ += cycle_ - req.predictedCycle;
        ++resolutionTimeCount_;
    }

    // Salvaged instructions that already executed may themselves have
    // resolved against the machine's new path; re-run their checks.
    if (req.salvage) {
        for (std::size_t pos = window_.lowerBound(req.salvageFrom + 1);
             pos < window_.size(); ++pos) {
            DynInst &di = window_.at(pos);
            if (di.executed && isa::isControl(di.inst.op))
                resolveControl(di);
        }
    }
}

// ----------------------------------------------------------------------
// Retire.
// ----------------------------------------------------------------------

void
Processor::retireOne(DynInst &inst)
{
    if (inst.discarded) {
        if (inst.endsBlock) {
            TCSIM_ASSERT(outstandingCheckpoints_ > 0);
            --outstandingCheckpoints_;
            // Discarded implies never activated: not on the stack.
        }
        if (inst.isStore()) {
            TCSIM_ASSERT(!storeQueue_.empty() &&
                         storeQueue_.front() == inst.seq);
            storeQueue_.pop_front();
            // Retiring implies executed implies address-resolved.
            TCSIM_ASSERT(inst.memAddrKnown);
            addrIndexRemove(storeAddrIndex_, inst.memAddr, inst.seq);
        } else if (inst.isLoad() && inst.fired) {
            addrIndexRemove(loadAddrIndex_, inst.memAddr, inst.seq);
        }
        return;
    }

    // The retired stream must equal the functional oracle's stream.
    const workload::StepResult &golden = oracleAt(oracleRetireIdx_);
    TCSIM_ASSERT(golden.pc == inst.pc,
                 "retired pc 0x%llx diverges from oracle pc 0x%llx "
                 "at retire index %llu",
                 static_cast<unsigned long long>(inst.pc),
                 static_cast<unsigned long long>(golden.pc),
                 static_cast<unsigned long long>(oracleRetireIdx_));
    TCSIM_ASSERT(!isa::writesReg(inst.inst) || golden.result == inst.result,
                 "retired value %llx diverges from oracle %llx at pc %llx "
                 "op=%s seq=%llu idx=%llu",
                 static_cast<unsigned long long>(inst.result),
                 static_cast<unsigned long long>(golden.result),
                 static_cast<unsigned long long>(inst.pc),
                 isa::opcodeName(inst.inst.op),
                 static_cast<unsigned long long>(inst.seq),
                 static_cast<unsigned long long>(oracleRetireIdx_));
    TCSIM_ASSERT(!isa::isMem(inst.inst.op) || golden.memAddr == inst.memAddr,
                 "retired mem addr diverges at pc %llx",
                 static_cast<unsigned long long>(inst.pc));
    TCSIM_ASSERT(!isa::isCondBranch(inst.inst.op) ||
                     golden.taken == inst.taken,
                 "retired branch direction diverges at pc %llx seq %llu",
                 static_cast<unsigned long long>(inst.pc),
                 static_cast<unsigned long long>(inst.seq));
    ++oracleRetireIdx_;
    // Retired entries are dead: fetch never looks below the retire
    // boundary (recoveries resynchronize at or above it). Ring slots
    // are reclaimed by arithmetic; no per-entry work.
    if (oracleRetireIdx_ > oracleBase_) {
        const std::uint64_t dead =
            std::min(oracleRetireIdx_ - oracleBase_, oracleCount_);
        oracleBase_ += dead;
        oracleCount_ -= dead;
    }

    const Opcode op = inst.inst.op;

    // Architectural effects.
    if (isa::writesReg(inst.inst)) {
        archRegs_[inst.inst.rd] = inst.result;
        if (!rat_[inst.inst.rd].isValue &&
            rat_[inst.inst.rd].tag == inst.seq) {
            rat_[inst.inst.rd] = RatEntry{true, inst.result,
                                          kInvalidSeqNum};
        }
    }
    if (inst.isStore()) {
        memory_.store(inst.memAddr, inst.storeData);
        hierarchy_.dcache().access(inst.memAddr, true, cycle_);
        TCSIM_ASSERT(!storeQueue_.empty() &&
                     storeQueue_.front() == inst.seq);
        storeQueue_.pop_front();
        TCSIM_ASSERT(inst.memAddrKnown);
        addrIndexRemove(storeAddrIndex_, inst.memAddr, inst.seq);
    } else if (inst.isLoad() && inst.fired) {
        addrIndexRemove(loadAddrIndex_, inst.memAddr, inst.seq);
    }

    // Speculative-structure training and architectural mirrors.
    if (isa::isCondBranch(op)) {
        ++retiredCondBranches_;
        archHistory_ = (archHistory_ << 1) |
                       static_cast<std::uint64_t>(inst.taken);
        if (inst.predictionValid) {
            if (inst.usedHybrid)
                hybrid_->update(inst.pc, inst.hybridCtx, inst.taken);
            else
                mbp_->update(inst.mbpCtx, inst.taken);
        }
        if (inst.promoted)
            ++promotedRetired_;
        if (inst.resolvedMispredict)
            ++condMispredicts_;
    } else if (isa::isCall(op)) {
        archRas_.push_back(inst.pc + isa::kInstBytes);
    } else if (isa::isReturn(op)) {
        if (!archRas_.empty())
            archRas_.pop_back();
        ++retiredReturns_;
        if (inst.resolvedMisfetch) {
            ++indirectMispredicts_;
            ++returnMisfetches_;
        }
    } else if (isa::isIndirectJump(op)) {
        frontEnd_.indirect.update(inst.pc, inst.actualNextPc);
        ++retiredIndirects_;
        if (inst.resolvedMisfetch)
            ++indirectMispredicts_;
    } else if (op == Opcode::Trap) {
        // Resume fetch unless another in-flight serializer remains.
        serializeStall_ = false;
        for (std::size_t pos = 0; pos < window_.size(); ++pos) {
            const DynInst &di = window_.at(pos);
            if (di.seq != inst.seq && di.active && !di.discarded &&
                isa::isSerializing(di.inst.op)) {
                serializeStall_ = true;
                break;
            }
        }
    } else if (op == Opcode::Halt) {
        haltRetired_ = true;
        done_ = true;
    }

    if (inst.endsBlock) {
        TCSIM_ASSERT(outstandingCheckpoints_ > 0);
        --outstandingCheckpoints_;
        // A retiring non-discarded instruction is active, so this
        // branch is the oldest checkpoint-stack entry.
        TCSIM_ASSERT(!checkpointStack_.empty() &&
                     checkpointStack_.front() == inst.seq,
                     "checkpoint stack out of sync at retire");
        checkpointStack_.pop_front();
    }

    // Feed the fill unit from the retired stream.
    if (fillUnit_ != nullptr) {
        trace::RetiredInst retired;
        retired.inst = inst.inst;
        retired.pc = inst.pc;
        retired.taken = inst.taken;
        if (profiler_ == nullptr) {
            fillUnit_->retire(retired);
        } else {
            const std::uint64_t t0 = obs::SelfProfiler::nowNs();
            fillUnit_->retire(retired);
            profiler_->addPhase(obs::Phase::Fill,
                                obs::SelfProfiler::nowNs() - t0);
        }
    }

    ++retiredInsts_;
}

void
Processor::retireStage()
{
    unsigned retired = 0;
    while (!window_.empty() && retired < config_.retireWidth) {
        DynInst *di = &window_.front();
        // Never retire past a pending recovery point: everything
        // younger is about to be squashed.
        if (recoveryPending_ && di->seq > recovery_.keepSeq)
            break;
        if (!di->executed)
            break;
        // An inactive instruction at the head is awaiting salvage
        // activation (applied at end of cycle); hold it.
        if (!di->active && !di->discarded)
            break;
        // Safety net: a resolution whose recovery request lost
        // arbitration (to an older origin whose squash did not cover
        // it) reaches the head unhandled; re-issue it now. In-order
        // retire guarantees no wrong-path instruction can slip past.
        if (di->active && !di->discarded && !di->recoveryApplied &&
            (di->resolvedMispredict || di->resolvedFault ||
             di->resolvedMisfetch)) {
            di->followedDir = di->taken;
            di->followedNextPc = di->actualNextPc;
            RecoveryRequest req;
            req.originSeq = di->seq;
            req.keepSeq = di->seq;
            req.redirect = di->actualNextPc;
            req.cause = di->resolvedMisfetch
                            ? CycleCategory::Misfetches
                            : CycleCategory::BranchMisses;
            requestRecovery(req);
            break;
        }
        retireOne(*di);
        window_.popFront();
        ++retired;
        if (done_)
            break;
    }
}

// ----------------------------------------------------------------------
// Top level.
// ----------------------------------------------------------------------

void
Processor::step()
{
    ++cycle_;
    if (profiler_ == nullptr) {
        retireStage();
        if (!done_) {
            completeStage();
            scheduleStage();
            dispatchStage();
            fetchStage();
            applyRecovery();
        }
    } else {
        // Same stage sequence with each stage bracketed by host-clock
        // reads; the fill unit's share is accounted inside retireOne.
        std::uint64_t t = obs::SelfProfiler::nowNs();
        retireStage();
        t = profiler_->lap(obs::Phase::Retire, t);
        if (!done_) {
            completeStage();
            t = profiler_->lap(obs::Phase::Complete, t);
            scheduleStage();
            t = profiler_->lap(obs::Phase::Schedule, t);
            dispatchStage();
            t = profiler_->lap(obs::Phase::Dispatch, t);
            fetchStage();
            t = profiler_->lap(obs::Phase::Fetch, t);
            applyRecovery();
            profiler_->lap(obs::Phase::Recovery, t);
        }
    }
    if (!done_ && maxInsts_ != 0 && retiredInsts_ >= maxInsts_)
        done_ = true;
    if (intervals_ != nullptr && retiredInsts_ >= intervalNextAt_) {
        intervals_->snapshot(intervalCounters());
        intervalNextAt_ = intervals_->nextBoundaryAfter(retiredInsts_);
    }
}

SimResult
Processor::run(std::uint64_t max_insts)
{
    maxInsts_ = max_insts;
    // A previous run() may have stopped at its instruction budget;
    // resume unless the program actually halted.
    if (!haltRetired_ &&
        (maxInsts_ == 0 || retiredInsts_ < maxInsts_)) {
        done_ = false;
    }
    const std::uint64_t cycle_budget =
        (max_insts == 0 ? std::uint64_t{1} << 40
                        : max_insts * kMaxCyclesPerInst + 1'000'000);
    Cycle last_progress_cycle = 0;
    std::uint64_t last_retired = 0;
    while (!done_) {
        step();
        if (profiler_ != nullptr)
            profiler_->maybeSample(retiredInsts_);
        if (retiredInsts_ != last_retired) {
            last_retired = retiredInsts_;
            last_progress_cycle = cycle_;
        } else if (cycle_ - last_progress_cycle > 99'980 &&
                   std::getenv("TCSIM_TRACE") != nullptr) {
            std::fprintf(stderr,
                         "cyc=%llu pc=%llx rob=%zu fq=%zu ckpt=%u "
                         "stall=%llu ser=%d rec=%d onP=%d ofi=%llu "
                         "ori=%llu\n",
                         (unsigned long long)cycle_,
                         (unsigned long long)fetchPc_, window_.size(),
                         fetchQueue_.size(), outstandingCheckpoints_,
                         (unsigned long long)icacheStallUntil_,
                         (int)serializeStall_, (int)recoveryPending_,
                         (int)onTruePath_,
                         (unsigned long long)oracleFetchIdx_,
                         (unsigned long long)oracleRetireIdx_);
        }
        if (cycle_ - last_progress_cycle > 100'000) {
            fatal("no retirement progress for 100k cycles at cycle %llu "
                  "(%llu retired; rob=%zu fetchq=%zu serialize=%d "
                  "recovery=%d ckpts=%u icacheStall=%llu pc=%llx "
                  "onPath=%d)",
                  static_cast<unsigned long long>(cycle_),
                  static_cast<unsigned long long>(retiredInsts_),
                  window_.size(), fetchQueue_.size(),
                  static_cast<int>(serializeStall_),
                  static_cast<int>(recoveryPending_),
                  outstandingCheckpoints_,
                  static_cast<unsigned long long>(icacheStallUntil_),
                  static_cast<unsigned long long>(fetchPc_),
                  static_cast<int>(onTruePath_));
        }
        if (cycle_ > cycle_budget) {
            fatal("cycle budget exhausted: %llu cycles, %llu retired "
                  "(deadlock?)",
                  static_cast<unsigned long long>(cycle_),
                  static_cast<unsigned long long>(retiredInsts_));
        }
    }
    if (intervals_ != nullptr)
        intervals_->finish(intervalCounters());
    if (tracer_ != nullptr)
        tracer_->flush();
    return makeResult();
}

void
Processor::attachTracer(obs::Tracer *tracer)
{
    tracer_ = tracer;
    if (tracer != nullptr)
        tracer->attachClock(&cycle_);
    fetchEngine_->setTracer(tracer);
    if (traceCache_ != nullptr)
        traceCache_->setTracer(tracer);
    if (fillUnit_ != nullptr)
        fillUnit_->setTracer(tracer);
    hierarchy_.icache().setTracer(tracer);
    hierarchy_.dcache().setTracer(tracer);
    hierarchy_.l2().setTracer(tracer);
    hierarchy_.dram().setTracer(tracer);
}

void
Processor::attachIntervalRecorder(obs::IntervalRecorder *recorder)
{
    intervals_ = recorder;
    if (recorder != nullptr) {
        // Baseline at attach so the first interval's deltas exclude
        // anything already simulated (e.g. a warm-up phase).
        recorder->setBase(intervalCounters());
        intervalNextAt_ = recorder->nextBoundaryAfter(retiredInsts_);
    }
}

obs::IntervalCounters
Processor::intervalCounters() const
{
    obs::IntervalCounters c;
    c.cycles = cycle_;
    c.insts = retiredInsts_;
    c.usefulFetches = accounting_.usefulFetches();
    c.fetchedInsts = accounting_.fetchedInsts();
    c.condBranches = retiredCondBranches_;
    c.condMispredicts = condMispredicts_ + promotedFaults_;
    c.promotedFaults = promotedFaults_;
    c.promotedRetired = promotedRetired_;
    if (fillUnit_ != nullptr) {
        c.promotions = fillUnit_->biasTable().promotions();
        c.demotions = fillUnit_->biasTable().demotions();
        c.segmentsBuilt = fillUnit_->segmentsBuilt();
    }
    if (traceCache_ != nullptr) {
        c.tcLookups = traceCache_->lookups();
        c.tcHits = traceCache_->hits();
    }
    c.icacheMisses = hierarchy_.icache().misses();
    c.predictionsUsed = predictionsUsedSum_;
    c.memOrderViolations = memOrderViolations_;
    c.l2Misses = hierarchy_.l2().misses();
    c.writebacks = hierarchy_.icache().writebacks() +
                   hierarchy_.dcache().writebacks() +
                   hierarchy_.l2().writebacks();
    c.dramBusWaitCycles = hierarchy_.dram().busWaitCycles();
    c.dramMshrStallCycles = hierarchy_.dram().mshrStallCycles();
    return c;
}

void
Processor::resyncWithOracle()
{
    // Committed mirrors.
    memory_.copyFrom(oracle_->memory());
    for (unsigned r = 0; r < isa::kNumArchRegs; ++r)
        archRegs_[r] = oracle_->reg(static_cast<RegIndex>(r));

    // The oracle ring is empty and starts at the oracle's position.
    oracleBase_ = oracle_->instCount();
    oracleCount_ = 0;
    oracleFetchIdx_ = oracleBase_;
    oracleRetireIdx_ = oracleBase_;
    onTruePath_ = true;

    // Speculative state from the committed mirrors: the window is
    // empty, so the recovery rebuild has no in-flight writers to add.
    TCSIM_ASSERT(window_.empty());
    rebuildSpeculativeState(nullptr);
    fetchPc_ = oracle_->pc();

    retiredInsts_ = oracleBase_;
    statBaseCycle_ = cycle_;
    statBaseInsts_ = retiredInsts_;
    if (intervals_ != nullptr)
        intervalNextAt_ = intervals_->nextBoundaryAfter(retiredInsts_);
}

void
Processor::warmStart(const workload::ArchCheckpoint &ckpt)
{
    TCSIM_ASSERT(cycle_ == 0 && retiredInsts_ == 0 && window_.empty(),
                 "warmStart requires a pristine processor");
    TCSIM_ASSERT(!ckpt.halted, "cannot warm-start at a halted program");

    // Reposition the oracle at the checkpoint.
    oracle_->memory().clear();
    for (const auto &[index, bytes] : ckpt.pages)
        oracle_->memory().writePage(index, bytes.data());
    for (unsigned r = 0; r < isa::kNumArchRegs; ++r)
        oracle_->setReg(static_cast<RegIndex>(r), ckpt.regs[r]);
    oracle_->restoreExecPoint(ckpt.pc, ckpt.instIndex, ckpt.halted);

    archHistory_ = ckpt.history;
    archRas_.assign(ckpt.ras.begin(), ckpt.ras.end());
    resyncWithOracle();
}

// Inline into both loops: as a call per instruction it cost warm-up,
// record and replay 9-15% of their speed in tcsim-bench.
inline Processor::PathMisses
Processor::trainOnPath(const workload::StepResult &step, PathLeader &leader)
{
    PathMisses misses;
    const Opcode op = step.inst.op;
    hierarchy_.icache().access(step.pc, false, cycle_);

    if (isa::isCondBranch(op)) {
        if (mbp_ != nullptr) {
            const bpred::MbpCtx ctx{
                leader.pc, leader.history, 0, 0,
                mbp_->predict(leader.pc, leader.history, 0, 0)};
            misses.cond = ctx.prediction != step.taken;
            mbp_->update(ctx, step.taken);
        }
        if (hybrid_ != nullptr) {
            const bpred::HybridCtx ctx =
                hybrid_->predict(step.pc, archHistory_);
            misses.cond = ctx.prediction != step.taken;
            hybrid_->update(step.pc, ctx, step.taken);
        }
        archHistory_ = (archHistory_ << 1) |
                       static_cast<std::uint64_t>(step.taken);
    } else if (isa::isCall(op)) {
        archRas_.push_back(step.pc + isa::kInstBytes);
    } else if (isa::isReturn(op)) {
        misses.ret = archRas_.empty() || archRas_.back() != step.nextPc;
        if (!archRas_.empty())
            archRas_.pop_back();
    } else if (isa::isIndirectJump(op)) {
        misses.indirect =
            frontEnd_.indirect.predict(step.pc) != step.nextPc;
        frontEnd_.indirect.update(step.pc, step.nextPc);
    }

    if (fillUnit_ != nullptr)
        fillUnit_->retire({step.inst, step.pc, step.taken});
    if (isa::isControl(op))
        leader = PathLeader{step.nextPc, archHistory_};
    return misses;
}

void
Processor::functionalWarmup(std::uint64_t until)
{
    TCSIM_ASSERT(cycle_ == 0 && window_.empty() && oracleCount_ == 0,
                 "functionalWarmup requires a pre-run processor");
    TCSIM_ASSERT(oracle_->instCount() == retiredInsts_,
                 "oracle out of sync with the committed position");
    TCSIM_ASSERT(until >= retiredInsts_);

    // The leader carries over from the previous call, so warming in
    // steps leaves the same state as one call to the same end point.
    if (warmLeader_.pc == kInvalidAddr)
        warmLeader_ = PathLeader{oracle_->pc(), archHistory_};
    PathLeader leader = warmLeader_;
    workload::StepResult step;
    while (oracle_->instCount() < until && !oracle_->halted()) {
        oracle_->step(step);
        trainOnPath(step, leader);
        // After the icache touch: both miss into the shared L2, so
        // their order sets its LRU state.
        if (isa::isMem(step.inst.op) && step.memAddr != kInvalidAddr)
            hierarchy_.dcache().access(step.memAddr,
                                       isa::isStore(step.inst.op), cycle_);
    }
    TCSIM_ASSERT(oracle_->instCount() == until,
                 "program halted inside the functional warm-up window");
    warmLeader_ = leader;
    resyncWithOracle();
}

namespace
{

workload::BtraceClass
btraceClassOf(Opcode op)
{
    if (isa::isCondBranch(op))
        return workload::BtraceClass::Cond;
    if (isa::isCall(op))
        return workload::BtraceClass::Call;
    if (isa::isReturn(op))
        return workload::BtraceClass::Ret;
    if (isa::isIndirectJump(op))
        return workload::BtraceClass::IndirectJump;
    if (op == Opcode::Trap)
        return workload::BtraceClass::Trap;
    if (op == Opcode::Halt)
        return workload::BtraceClass::Halt;
    return workload::BtraceClass::Jump;
}

} // namespace

Processor::ControlFlowResult
Processor::controlFlowPass(
    const std::function<bool(workload::StepResult &)> &source,
    Addr start_pc, workload::BtraceWriter *writer)
{
    TCSIM_ASSERT(cycle_ == 0 && window_.empty() && oracleCount_ == 0,
                 "control-flow passes require a pre-run processor");

    ControlFlowResult result;
    result.outcomeHash = kFnvOffsetBasis;

    // Each new leader costs one trace-cache lookup — the fetch-rate /
    // miss-rate signal the replay stats report.
    PathLeader leader{start_pc, archHistory_};
    bool leader_pending = true;

    workload::StepResult step;
    while (source(step)) {
        const Opcode op = step.inst.op;
        // Before trainOnPath(): its fill-unit retire inserts into the
        // trace cache this lookup reads.
        if (leader_pending && traceCache_ != nullptr)
            traceCache_->lookup(leader.pc);
        const PathMisses misses = trainOnPath(step, leader);
        ++result.instructions;

        leader_pending = isa::isControl(op);
        if (leader_pending) {
            ++result.records;
            if (isa::isCondBranch(op)) {
                ++result.condBranches;
                result.condMispredicts += misses.cond;
            } else if (isa::isReturn(op)) {
                ++result.returns;
                result.returnMispredicts += misses.ret;
            } else if (isa::isIndirectJump(op)) {
                ++result.indirectJumps;
                result.indirectMispredicts += misses.indirect;
            } else if (op == Opcode::Trap) {
                ++result.traps;
            }
            result.outcomeHash =
                fnv1aAppendScalar(result.outcomeHash, step.pc);
            result.outcomeHash =
                fnv1aAppendScalar(result.outcomeHash, step.nextPc);
            result.outcomeHash = fnv1aAppendScalar(
                result.outcomeHash,
                static_cast<std::uint8_t>(step.taken ? 1 : 0));
            if (writer != nullptr) {
                workload::BtraceRecord record;
                record.pc = step.pc;
                record.target = step.nextPc;
                record.cls = btraceClassOf(op);
                record.taken = step.taken;
                writer->append(record);
            }
        }
        if (step.halted) {
            result.halted = true;
            break;
        }
    }

    result.finalHistory = archHistory_;
    result.icacheAccesses = hierarchy_.icache().accesses();
    result.icacheMisses = hierarchy_.icache().misses();
    if (traceCache_ != nullptr) {
        result.tcLookups = traceCache_->lookups();
        result.tcHits = traceCache_->hits();
    }
    return result;
}

Processor::ControlFlowResult
Processor::recordTrace(workload::BtraceWriter &writer,
                       std::uint64_t max_insts)
{
    const auto source = [this,
                         max_insts](workload::StepResult &out) -> bool {
        if (oracle_->halted() || oracle_->instCount() >= max_insts)
            return false;
        oracle_->step(out);
        return true;
    };
    const ControlFlowResult result =
        controlFlowPass(source, oracle_->pc(), &writer);
    writer.close(result.instructions);
    return result;
}

Processor::ControlFlowResult
Processor::replayTrace(const workload::BtraceReader &reader)
{
    const workload::BtraceHeader &header = reader.header();
    Addr pc = header.entryPc;
    std::uint64_t rec_idx = 0;
    std::uint64_t covered = 0;
    const auto source = [this, &reader, &header, &pc, &rec_idx,
                         &covered](workload::StepResult &out) -> bool {
        if (covered >= header.instCount)
            return false;
        if (!program_.isCode(pc)) {
            fatal("btrace replay walked outside the program image at "
                  "pc 0x%llx",
                  static_cast<unsigned long long>(pc));
        }
        out.pc = pc;
        out.inst = program_.fetch(pc);
        const Opcode op = out.inst.op;
        out.memAddr = kInvalidAddr;
        out.halted = op == Opcode::Halt;
        if (isa::isControl(op)) {
            if (rec_idx >= reader.recordCount()) {
                fatal("btrace ran out of records at pc 0x%llx "
                      "(instCount says more follow)",
                      static_cast<unsigned long long>(pc));
            }
            const workload::BtraceRecord record = reader.record(rec_idx);
            ++rec_idx;
            if (record.pc != pc) {
                fatal("btrace divergence: walked to pc 0x%llx but the "
                      "next record is for pc 0x%llx (record %llu)",
                      static_cast<unsigned long long>(pc),
                      static_cast<unsigned long long>(record.pc),
                      static_cast<unsigned long long>(rec_idx - 1));
            }
            out.taken = record.taken;
            out.nextPc = record.target;
        } else {
            out.taken = false;
            out.nextPc = pc + isa::kInstBytes;
        }
        pc = out.nextPc;
        ++covered;
        return true;
    };
    const ControlFlowResult result =
        controlFlowPass(source, header.entryPc, nullptr);
    if (result.instructions != header.instCount && !result.halted) {
        fatal("btrace replay covered %llu instructions but the header "
              "promises %llu",
              static_cast<unsigned long long>(result.instructions),
              static_cast<unsigned long long>(header.instCount));
    }
    return result;
}

void
Processor::resetStats()
{
    accounting_.reset();
    statBaseCycle_ = cycle_;
    statBaseInsts_ = retiredInsts_;
    retiredCondBranches_ = 0;
    condMispredicts_ = 0;
    promotedFaults_ = 0;
    indirectMispredicts_ = 0;
    returnMisfetches_ = 0;
    retiredReturns_ = 0;
    retiredIndirects_ = 0;
    promotedRetired_ = 0;
    resolutionTimeSum_ = 0;
    resolutionTimeCount_ = 0;
    memOrderViolations_ = 0;
    for (auto &count : fetchesNeedingPreds_)
        count = 0;
    predictionsUsedSum_ = 0;
    hierarchy_.icache().resetStats();
    hierarchy_.dcache().resetStats();
    hierarchy_.l2().resetStats();
    hierarchy_.dram().resetStats();
    if (traceCache_ != nullptr)
        traceCache_->resetStats();
    if (fillUnit_ != nullptr)
        fillUnit_->resetStats();
}

namespace
{

constexpr char kPredStateMagic[8] = {'T', 'C', 'P', 'R', 'E', 'D', 'v', '1'};

} // namespace

void
Processor::exportPredictorState(std::ostream &os) const
{
    binio::writeMagic(os, kPredStateMagic);
    binio::writeScalar<std::uint8_t>(os, mbp_ ? 1 : 0);
    if (mbp_ != nullptr)
        mbp_->saveState(os);
    binio::writeScalar<std::uint8_t>(os, hybrid_ ? 1 : 0);
    if (hybrid_ != nullptr)
        hybrid_->saveState(os);
    binio::writeScalar<std::uint8_t>(os, fillUnit_ ? 1 : 0);
    if (fillUnit_ != nullptr)
        fillUnit_->saveTrainingState(os);
}

bool
Processor::importPredictorState(std::istream &is)
{
    if (!binio::expectMagic(is, kPredStateMagic))
        return false;
    std::uint8_t have_mbp = 0, have_hybrid = 0, have_bias = 0;
    if (!binio::readScalar(is, have_mbp) ||
        (have_mbp != 0) != (mbp_ != nullptr)) {
        return false;
    }
    if (mbp_ != nullptr && !mbp_->restoreState(is))
        return false;
    if (!binio::readScalar(is, have_hybrid) ||
        (have_hybrid != 0) != (hybrid_ != nullptr)) {
        return false;
    }
    if (hybrid_ != nullptr && !hybrid_->restoreState(is))
        return false;
    if (!binio::readScalar(is, have_bias) ||
        (have_bias != 0) != (fillUnit_ != nullptr)) {
        return false;
    }
    if (fillUnit_ != nullptr && !fillUnit_->restoreTrainingState(is))
        return false;
    return true;
}

namespace
{

constexpr char kWarmStateMagic[8] = {'T', 'C', 'W', 'A', 'R', 'M', 'v', '1'};

} // namespace

void
Processor::exportWarmState(std::ostream &os) const
{
    binio::writeMagic(os, kWarmStateMagic);
    exportPredictorState(os);
    frontEnd_.indirect.saveState(os);
    hierarchy_.icache().saveState(os);
    hierarchy_.dcache().saveState(os);
    hierarchy_.l2().saveState(os);
    binio::writeScalar<std::uint8_t>(os, traceCache_ ? 1 : 0);
    if (traceCache_ != nullptr)
        traceCache_->saveState(os);
}

bool
Processor::importWarmState(std::istream &is)
{
    if (!binio::expectMagic(is, kWarmStateMagic))
        return false;
    if (!importPredictorState(is))
        return false;
    if (!frontEnd_.indirect.restoreState(is))
        return false;
    if (!hierarchy_.icache().restoreState(is) ||
        !hierarchy_.dcache().restoreState(is) ||
        !hierarchy_.l2().restoreState(is)) {
        return false;
    }
    std::uint8_t have_tc = 0;
    if (!binio::readScalar(is, have_tc) ||
        (have_tc != 0) != (traceCache_ != nullptr)) {
        return false;
    }
    if (traceCache_ != nullptr && !traceCache_->restoreState(is))
        return false;
    return true;
}

SimResult
Processor::makeResult() const
{
    SimResult result;
    result.benchmark = program_.name();
    result.config = config_.name;
    result.instructions = retiredInsts_ - statBaseInsts_;
    const Cycle window_cycles = cycle_ - statBaseCycle_;
    result.cycles = window_cycles;
    result.ipc = window_cycles == 0
                     ? 0.0
                     : static_cast<double>(result.instructions) /
                           window_cycles;
    result.effectiveFetchRate = accounting_.effectiveFetchRate();

    result.condBranches = retiredCondBranches_;
    result.condMispredicts = condMispredicts_ + promotedFaults_;
    result.promotedFaults = promotedFaults_;
    result.indirectMispredicts = indirectMispredicts_;
    result.condMispredictRate =
        retiredCondBranches_ == 0
            ? 0.0
            : static_cast<double>(result.condMispredicts) /
                  retiredCondBranches_;
    result.meanResolutionTime =
        resolutionTimeCount_ == 0
            ? 0.0
            : static_cast<double>(resolutionTimeSum_) /
                  resolutionTimeCount_;

    result.usefulFetches = accounting_.usefulFetches();
    result.fetchedInsts = accounting_.fetchedInsts();
    result.resolutionTimeSum = resolutionTimeSum_;
    result.resolutionTimeCount = resolutionTimeCount_;
    for (unsigned n = 0; n < 4; ++n)
        result.fetchesNeedingPreds[n] = fetchesNeedingPreds_[n];

    const std::uint64_t useful = accounting_.usefulFetches();
    if (useful > 0) {
        result.fetchesNeeding01 =
            static_cast<double>(fetchesNeedingPreds_[0] +
                                fetchesNeedingPreds_[1]) /
            useful;
        result.fetchesNeeding2 =
            static_cast<double>(fetchesNeedingPreds_[2]) / useful;
        result.fetchesNeeding3 =
            static_cast<double>(fetchesNeedingPreds_[3]) / useful;
    }

    for (unsigned c = 0;
         c < static_cast<unsigned>(CycleCategory::NumCategories); ++c) {
        result.cycleCat[c] =
            accounting_.categoryCycles(static_cast<CycleCategory>(c));
    }
    for (unsigned r = 0;
         r < static_cast<unsigned>(FetchReason::NumReasons); ++r) {
        for (unsigned w = 0; w <= Accounting::kMaxFetchWidth; ++w) {
            result.fetchHist[r][w] = accounting_.fetchCount(
                static_cast<FetchReason>(r), w);
        }
    }

    if (traceCache_ != nullptr) {
        result.tcLookups = traceCache_->lookups();
        result.tcHits = traceCache_->hits();
    }
    result.icacheMisses = hierarchy_.icache().misses();
    result.promotedRetired = promotedRetired_;

    StatDump &dump = result.stats;
    dump.add("sim.cycles", static_cast<double>(cycle_));
    dump.add("sim.insts", static_cast<double>(retiredInsts_));
    dump.add("sim.ipc", result.ipc);
    dump.add("fetch.effective_rate", result.effectiveFetchRate);
    dump.add("bpred.cond_branches",
             static_cast<double>(retiredCondBranches_));
    dump.add("bpred.cond_mispredicts",
             static_cast<double>(result.condMispredicts));
    dump.add("bpred.promoted_faults",
             static_cast<double>(promotedFaults_));
    dump.add("bpred.mispredict_rate", result.condMispredictRate);
    dump.add("bpred.mean_resolution_time", result.meanResolutionTime);
    dump.add("bpred.retired_returns", static_cast<double>(retiredReturns_));
    dump.add("bpred.return_misfetches",
             static_cast<double>(returnMisfetches_));
    dump.add("bpred.retired_indirects",
             static_cast<double>(retiredIndirects_));
    dump.add("bpred.indirect_mispredicts",
             static_cast<double>(indirectMispredicts_));
    dump.add("mem.order_violations",
             static_cast<double>(memOrderViolations_));
    hierarchy_.dumpStats(dump);
    if (traceCache_ != nullptr)
        traceCache_->dumpStats(dump);
    if (fillUnit_ != nullptr)
        fillUnit_->dumpStats(dump);
    return result;
}

} // namespace tcsim::sim
