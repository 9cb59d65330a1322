/**
 * @file
 * The Optimize step of MergeBlocks (paper Fig. 5) and the discrete "O"
 * phase: a short pipeline of copy propagation, value numbering,
 * predicate optimization, and dead code elimination.
 */

#ifndef CHF_TRANSFORM_OPTIMIZE_H
#define CHF_TRANSFORM_OPTIMIZE_H

#include "ir/function.h"
#include "support/bitvector.h"
#include "transform/copy_prop.h"
#include "transform/dce.h"
#include "transform/gvn.h"
#include "transform/pred_opt.h"

namespace chf {

/**
 * Bundled working storage for the per-block passes. The merge engine
 * keeps a single instance alive across all trials of a function, and
 * optimizeFunction one across every block of a call, so the per-pass
 * vectors/bitvectors amortize to zero allocations once warm.
 */
struct BlockOptScratch
{
    CopyPropScratch copyProp;
    GvnScratch gvn;
    PredOptScratch predOpt;
    DceScratch dce;
    CoalesceScratch coalesce;
};

/**
 * Per-pass wall time of one or more optimizeBlock invocations (the
 * `usOpt*` counters the merge engine reports).
 */
struct OptPassStats
{
    uint64_t usCopyProp = 0;
    uint64_t usGvn = 0;
    uint64_t usPredOpt = 0;
    uint64_t usDce = 0;
    uint64_t usCoalesce = 0;
};

/**
 * Optimize a single block in place given its live-out set. Used on the
 * scratch merged block inside MergeBlocks. When @p stats is non-null,
 * per-pass wall time is accumulated into it. @return total changes.
 */
size_t optimizeBlock(BasicBlock &bb, const BitVector &live_out,
                     BlockOptScratch &scratch,
                     OptPassStats *stats = nullptr);

/**
 * Whole-function scalar optimization (the discrete "O" phase of the
 * paper's pipelines): up to 3 rounds of copy propagation, local and
 * dominator value numbering, predicate optimization, DCE to its fixed
 * point, and move coalescing. Linear in function size per pass: one
 * scratch and one Liveness per call, patched with Liveness::update
 * after the passes that edit blocks, so each pass reads liveness as it
 * stood when the pass started (DESIGN.md §11). @return total changes.
 */
size_t optimizeFunction(Function &fn);

} // namespace chf

#endif // CHF_TRANSFORM_OPTIMIZE_H
