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
 * Bundled working storage for one optimizeBlock invocation. The merge
 * engine keeps a single instance alive across all trials of a
 * function, so the per-pass vectors/bitvectors amortize to zero
 * allocations once warm.
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
size_t optimizeBlock(Function &fn, BasicBlock &bb,
                     const BitVector &live_out,
                     BlockOptScratch *scratch = nullptr,
                     OptPassStats *stats = nullptr);

/**
 * Whole-function scalar optimization (the discrete "O" phase of the
 * paper's pipelines). @return total changes.
 */
size_t optimizeFunction(Function &fn);

} // namespace chf

#endif // CHF_TRANSFORM_OPTIMIZE_H
