/**
 * @file
 * InstRing: the in-flight instruction window. One power-of-two ring of
 * DynInst slots is both the instruction store and the reorder buffer.
 *
 * The slot rule: sequence number s lives in slot s & (capacity - 1).
 * Live instructions fill contiguous slots from the head (oldest) to
 * the tail (youngest); retire advances the head and squash truncates
 * the tail. Squashes never rewind the sequence counter, so allocate()
 * skips ahead to the smallest unused seq that maps to the slot after
 * the tail. Seqs therefore stay unique, strictly increasing and never
 * kInvalidSeqNum, while contiguity means a capacity of at least the
 * window size is enough. A stale reference (ready-queue entry, waiter
 * list, completion event) to a retired or squashed instruction fails
 * find() because its slot no longer holds that seq.
 */

#ifndef TCSIM_CORE_INST_RING_H
#define TCSIM_CORE_INST_RING_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/log.h"
#include "common/types.h"
#include "core/dyninst.h"

namespace tcsim::core
{

class InstRing
{
  public:
    /** A ring of the smallest power of two >= @p min_entries slots. */
    explicit InstRing(std::uint32_t min_entries)
    {
        std::size_t slots = 1;
        while (slots < min_entries)
            slots <<= 1;
        slots_.resize(slots);
        mask_ = slots - 1;
    }

    std::size_t capacity() const { return slots_.size(); }
    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    /** @return the live instruction @p seq; null once it retired or
     * was squashed, or for kInvalidSeqNum. */
    DynInst *
    find(InstSeqNum seq)
    {
        DynInst &slot = slots_[seq & mask_];
        return seq != kInvalidSeqNum && slot.seq == seq ? &slot : nullptr;
    }
    const DynInst *
    find(InstSeqNum seq) const
    {
        const DynInst &slot = slots_[seq & mask_];
        return seq != kInvalidSeqNum && slot.seq == seq ? &slot : nullptr;
    }

    /** Window position @p pos: 0 is the oldest, size() - 1 the tail. */
    DynInst &at(std::size_t pos) { return slots_[(head_ + pos) & mask_]; }
    const DynInst &
    at(std::size_t pos) const
    {
        return slots_[(head_ + pos) & mask_];
    }
    DynInst &front() { return at(0); }
    DynInst &back() { return at(count_ - 1); }

    /** @return the first position whose seq >= @p seq (size() if
     * none); positions are in ascending seq order. */
    std::size_t
    lowerBound(InstSeqNum seq) const
    {
        std::size_t lo = 0;
        std::size_t hi = count_;
        while (lo < hi) {
            const std::size_t mid = lo + (hi - lo) / 2;
            if (at(mid).seq < seq)
                lo = mid + 1;
            else
                hi = mid;
        }
        return lo;
    }

    /** Append the fetched instruction @p fetched after the tail, with
     * default core state and an empty waiters list. */
    DynInst &
    allocate(const fetch::FetchedInst &fetched)
    {
        TCSIM_ASSERT(count_ < slots_.size(), "instruction ring full");
        if (count_ == 0)
            head_ = nextSeq_ & mask_;
        else
            nextSeq_ += (back().seq + 1 - nextSeq_) & mask_;
        // Written in place; the waiters list keeps its allocation.
        DynInst &slot = slots_[nextSeq_ & mask_];
        static_cast<fetch::FetchedInst &>(slot) = fetched;
        static_cast<DynState &>(slot) = freshState_;
        slot.seq = nextSeq_;
        slot.waiters.clear();
        ++nextSeq_;
        ++count_;
        return slot;
    }

    /** Retire the oldest instruction. */
    void
    popFront()
    {
        TCSIM_ASSERT(count_ > 0);
        front().seq = kInvalidSeqNum;
        head_ = (head_ + 1) & mask_;
        --count_;
    }

    /** Squash the youngest instruction. */
    void
    popBack()
    {
        TCSIM_ASSERT(count_ > 0);
        back().seq = kInvalidSeqNum;
        --count_;
    }

  private:
    std::vector<DynInst> slots_;
    /** The default core state, copied into each allocated slot. A
     * copy from memory compiles to 16-byte moves; assigning
     * DynState{} compiles to a slower `rep stos` at this size. */
    const DynState freshState_{};
    std::size_t mask_ = 0;
    std::size_t head_ = 0;  ///< slot of the oldest live instruction
    std::size_t count_ = 0; ///< live instructions
    InstSeqNum nextSeq_ = 1;
};

} // namespace tcsim::core

#endif // TCSIM_CORE_INST_RING_H
