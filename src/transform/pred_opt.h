/**
 * @file
 * Predicate optimizations (the "dataflow predication" cleanups of
 * Smith et al. the paper applies in its Optimize step):
 *
 * 1. Instruction merging: identical pure instructions guarded by
 *    complementary predicates (p,true)/(p,false) collapse into one
 *    unpredicated instruction, combining code from distinct
 *    control-flow paths.
 *
 * 2. Implicit predication: interior instructions of a predicated
 *    dependence chain drop their predicates when every consumer of the
 *    result is guarded by the same predicate, so only the chain
 *    boundary instructions read the predicate. (The paper predicates
 *    the head of the chain; under this IR's program-order semantics the
 *    guarded boundary is the consumer side -- the predicate-use count
 *    falls identically.)
 */

#ifndef CHF_TRANSFORM_PRED_OPT_H
#define CHF_TRANSFORM_PRED_OPT_H

#include "ir/function.h"
#include "support/bitvector.h"
#include "support/stamped_table.h"

namespace chf {

/**
 * Reusable working storage for optimizePredicates, reset in O(1) per
 * call, so a call touches only the registers the block mentions (plus
 * lazily the live-out ones) instead of allocating per-register maps.
 */
struct PredOptScratch
{
    /** What the later readers of a register require of its writer. */
    struct Requirement
    {
        Predicate pred;   ///< valid when kind == Single
        uint8_t kind = 0; ///< NoReaders, Single or Conflict
    };

    StampedTable<Requirement> requirements;
    /** Present for each register the block reads as a predicate. */
    StampedTable<bool> usedAsPred;
};

/**
 * Optimize predicates in @p bb given the live-out registers.
 * @return number of instructions merged plus predicates dropped.
 */
size_t optimizePredicates(BasicBlock &bb, const BitVector &live_out,
                          PredOptScratch &scratch);

} // namespace chf

#endif // CHF_TRANSFORM_PRED_OPT_H
