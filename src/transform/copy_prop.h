/**
 * @file
 * Local copy propagation: forwards the sources of unpredicated moves
 * into later uses so the moves become dead (removed by DCE).
 */

#ifndef CHF_TRANSFORM_COPY_PROP_H
#define CHF_TRANSFORM_COPY_PROP_H

#include "ir/function.h"
#include "support/bitvector.h"

namespace chf {

/**
 * Reusable copy table for copyPropagateBlock: a dense epoch-stamped
 * map from copy destination to source operand. An entry is valid when
 * its stamp equals the current epoch, so "clearing" the table between
 * blocks is one integer increment instead of touching every slot; the
 * vectors keep their capacity across trials.
 */
struct CopyPropScratch
{
    std::vector<Operand> value;   ///< source operand per destination
    std::vector<uint32_t> stamp;  ///< valid iff stamp[v] == epoch
    std::vector<Vreg> active;     ///< destinations touched this epoch
    uint32_t epoch = 0;
};

/**
 * Propagate copies within @p bb.
 * @return number of uses rewritten.
 */
size_t copyPropagateBlock(BasicBlock &bb, CopyPropScratch &scratch);

/**
 * Reusable per-register count vectors for coalesceMoves,
 * epoch-stamped so a call touches only the registers the block
 * actually mentions instead of assigning all numVregs slots.
 */
struct CoalesceScratch
{
    std::vector<uint32_t> defs;
    std::vector<uint32_t> uses;
    std::vector<uint8_t> predUse;
    std::vector<uint32_t> stamp; ///< valid iff stamp[v] == epoch
    uint32_t epoch = 0;
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
