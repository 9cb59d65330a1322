/**
 * @file
 * The rebuild-per-pass whole-function optimizer that optimizeFunction
 * replaced, kept as the reference it must match byte for byte. Each
 * per-block call gets a fresh scratch, each pass solves a fresh
 * Liveness, and DCE solves again for each of at most 8 rounds.
 */

#ifndef CHF_TESTS_TRANSFORM_REFERENCE_OPTIMIZER_H
#define CHF_TESTS_TRANSFORM_REFERENCE_OPTIMIZER_H

#include <vector>

#include "analysis/liveness.h"
#include "transform/optimize.h"

namespace chf::reference {

/** @p bb's live-out in a vector of its own. */
inline BitVector
liveOutOf(const Liveness &liveness, const BasicBlock &bb)
{
    BitVector out;
    liveness.liveOutOf(bb, out);
    return out;
}

inline size_t
copyPropagateFunction(Function &fn)
{
    size_t total = 0;
    for (BlockId id : fn.blockIds()) {
        CopyPropScratch scratch;
        total += copyPropagateBlock(*fn.block(id), scratch);
    }
    return total;
}

inline size_t
valueNumberFunction(Function &fn)
{
    size_t total = 0;
    for (BlockId id : fn.blockIds()) {
        GvnScratch scratch;
        total += valueNumberBlock(*fn.block(id), scratch);
    }
    return total;
}

inline size_t
optimizePredicatesFunction(Function &fn)
{
    Liveness liveness(fn);
    size_t total = 0;
    for (BlockId id : fn.blockIds()) {
        BasicBlock *bb = fn.block(id);
        PredOptScratch scratch;
        total += optimizePredicates(*bb, liveOutOf(liveness, *bb), scratch);
    }
    return total;
}

/**
 * DCE in rounds of one fresh Liveness each, at most 8. @p capped is set
 * when the 8th round still removed something, i.e. the cap rather than
 * the fixed point ended the loop.
 */
inline size_t
eliminateDeadCodeFunction(Function &fn, bool &capped)
{
    size_t total = 0;
    for (int round = 0; round < 8; ++round) {
        Liveness liveness(fn);
        size_t removed = 0;
        for (BlockId id : fn.blockIds()) {
            BasicBlock *bb = fn.block(id);
            DceScratch scratch;
            removed +=
                eliminateDeadCode(*bb, liveOutOf(liveness, *bb), scratch);
        }
        total += removed;
        if (removed == 0)
            break;
        if (round == 7)
            capped = true;
    }
    return total;
}

inline size_t
coalesceMovesFunction(Function &fn)
{
    Liveness liveness(fn);
    size_t total = 0;
    for (BlockId id : fn.blockIds()) {
        BasicBlock *bb = fn.block(id);
        CoalesceScratch scratch;
        total += coalesceMoves(*bb, liveOutOf(liveness, *bb), scratch);
    }
    return total;
}

/** The old optimizeFunction; @p dce_capped as above, over all rounds. */
inline size_t
optimizeFunction(Function &fn, bool &dce_capped)
{
    size_t total = 0;
    for (int round = 0; round < 3; ++round) {
        size_t changes = 0;
        std::vector<BlockId> rewritten;
        changes += copyPropagateFunction(fn);
        changes += valueNumberFunction(fn);
        changes += valueNumberFunctionDominator(fn, rewritten);
        changes += optimizePredicatesFunction(fn);
        changes += eliminateDeadCodeFunction(fn, dce_capped);
        changes += coalesceMovesFunction(fn);
        total += changes;
        if (changes == 0)
            break;
    }
    return total;
}

} // namespace chf::reference

#endif // CHF_TESTS_TRANSFORM_REFERENCE_OPTIMIZER_H
