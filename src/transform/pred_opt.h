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

namespace chf {

/**
 * Reusable working storage for optimizePredicates, epoch-stamped so a
 * call touches only the registers the block mentions (plus lazily the
 * live-out ones) instead of allocating per-register maps.
 */
struct PredOptScratch
{
    // dropImplicit: per-register reader requirement (lazily seeded
    // from live_out on first touch) and predicate-use flags.
    std::vector<uint8_t> reqKind;   ///< Requirement::Kind as uint8_t
    std::vector<Predicate> reqPred; ///< valid when reqKind == Single
    std::vector<uint32_t> reqStamp;
    std::vector<uint8_t> usedAsPred;
    std::vector<uint32_t> usedStamp;
    uint32_t epoch = 0;
};

/**
 * Optimize predicates in @p bb given the live-out registers.
 * @return number of instructions merged plus predicates dropped.
 */
size_t optimizePredicates(BasicBlock &bb, const BitVector &live_out,
                          PredOptScratch &scratch);

} // namespace chf

#endif // CHF_TRANSFORM_PRED_OPT_H
