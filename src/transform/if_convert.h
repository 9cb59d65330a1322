/**
 * @file
 * Incremental if-conversion: the Combine step of the paper's
 * MergeBlocks (Fig. 5).
 *
 * combineBlocks() appends the instructions of a successor block S to a
 * hyperblock HB, predicating them on the condition under which HB
 * branched to S, and removes the consumed branches. Control dependence
 * becomes data dependence [Allen et al.]: S's instructions (including
 * its branches) execute only when the entry condition holds, expressed
 * with predicates and, where S was itself predicated, with materialized
 * AND chains of 0/1 predicate values.
 *
 * The same primitive implements tail duplication, loop peeling, and
 * loop unrolling (head duplication): the caller chooses which block
 * object to append (the live S, or a pristine saved loop body) and what
 * happens to the original S afterwards.
 */

#ifndef CHF_TRANSFORM_IF_CONVERT_H
#define CHF_TRANSFORM_IF_CONVERT_H

#include "ir/function.h"

namespace chf {

/** True if any instruction in @p bb writes @p reg. */
bool writesReg(const BasicBlock &bb, Vreg reg);

/**
 * Reusable working storage for combineBlocks. The merge engine runs
 * one combine per trial; passing the same scratch across trials
 * reuses the vector capacity instead of reallocating the rebuilt body
 * (often hundreds of instructions) every time.
 */
struct CombineScratch
{
    /** One cached predicate fold: entry && (reg == polarity). */
    struct FoldEntry
    {
        Vreg reg;
        bool onTrue;
        Vreg folded;
    };

    std::vector<size_t> consumed;
    std::vector<Vreg> snapshots;
    std::vector<Instruction> body;
    std::vector<FoldEntry> foldCache;
};

/**
 * Append @p s to @p hb under the entry condition of HB -> S branches.
 *
 * @param fn          Function providing fresh vregs (hb need not be a
 *                    live block of fn; scratch blocks are fine).
 * @param hb          The growing hyperblock; modified in place.
 * @param s           The block to merge (not modified; may be a saved
 *                    pristine copy whose id equals hb's for unrolling).
 * @param freq_share  Factor applied to the appended branch frequencies:
 *                    the share of S's profiled executions that flow
 *                    through HB.
 * @param scratch     Reusable working storage; a fresh and a reused
 *                    scratch give identical results.
 * @return false if HB has no branch to S (nothing changed).
 */
bool combineBlocks(Function &fn, BasicBlock &hb, const BasicBlock &s,
                   double freq_share, CombineScratch &scratch);

} // namespace chf

#endif // CHF_TRANSFORM_IF_CONVERT_H
