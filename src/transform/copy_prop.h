/**
 * @file
 * Local copy propagation: forwards the sources of unpredicated moves
 * into later uses so the moves become dead (removed by DCE).
 */

#ifndef CHF_TRANSFORM_COPY_PROP_H
#define CHF_TRANSFORM_COPY_PROP_H

#include "ir/function.h"
#include "support/bitvector.h"
#include "support/stamped_table.h"

namespace chf {

/**
 * Reusable copy table for copyPropagateBlock: copy destination ->
 * source operand, reset in O(1) per block; the storage keeps its
 * capacity across trials.
 */
struct CopyPropScratch
{
    StampedTable<Operand> copies;
    std::vector<Vreg> active; ///< destinations inserted this block
};

/**
 * Propagate copies within @p bb.
 * @return number of uses rewritten.
 */
size_t copyPropagateBlock(BasicBlock &bb, CopyPropScratch &scratch);

/**
 * Reusable per-register counts for coalesceMoves, reset in O(1) per
 * call, so a call touches only the registers the block mentions.
 */
struct CoalesceScratch
{
    struct Counts
    {
        uint32_t defs = 0;
        uint32_t uses = 0;
        bool predUse = false;
    };

    StampedTable<Counts> counts;
};

/**
 * Coalesce `t = op ...; x = mov t` pairs into `x = op ...` when t is a
 * block-local temporary with no other uses and x is untouched in
 * between. The front end emits this shape for every assignment to a
 * mutable variable; coalescing it is what exposes `i = i + 1` to the
 * counted-loop matcher and removes most lowering chatter.
 * @return number of moves coalesced.
 */
size_t coalesceMoves(BasicBlock &bb, const BitVector &live_out,
                     CoalesceScratch &scratch);

} // namespace chf

#endif // CHF_TRANSFORM_COPY_PROP_H
