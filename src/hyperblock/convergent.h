/**
 * @file
 * Convergent hyperblock formation: the ExpandBlock driver (paper
 * Fig. 5) applied over a whole function.
 *
 * Each seed block is expanded by repeatedly selecting a successor with
 * the policy and attempting the merge; successful merges contribute
 * their successors as new candidates, so the hyperblock converges on
 * the structural constraints. Peeling and unrolling happen naturally
 * when the selected successor is a loop header or the block's own back
 * edge target.
 */

#ifndef CHF_HYPERBLOCK_CONVERGENT_H
#define CHF_HYPERBLOCK_CONVERGENT_H

#include "hyperblock/merge.h"
#include "hyperblock/policy.h"
#include "support/stats.h"

namespace chf {

class DiagnosticEngine;

/** Options for whole-function formation. */
struct FormationOptions
{
    MergeOptions merge;

    /** Safety bound on merges into a single hyperblock. */
    size_t maxMergesPerBlock = 512;

    /**
     * Keep-going sink: when non-null, each seed's expansion runs as a
     * "formation-seed" phase (runPhase) that is snapshotted, verified,
     * and rolled back alone on failure, recorded here. Null (strict
     * mode) expands every seed bare, with no snapshot cost.
     */
    DiagnosticEngine *diags = nullptr;
};

/** Result: counters (blocksMerged / tailDuplicated / unrolled / peeled). */
struct FormationResult
{
    StatSet stats;
};

/**
 * Expand a single hyperblock (the paper's ExpandBlock): repeatedly
 * selects and merges successors of @p seed until the policy stops or
 * no candidate fits. Returns the number of successful merges. Polls
 * the unit's deadline, CancellationToken::current(), once per merge
 * round (DESIGN.md §12).
 */
size_t expandBlock(MergeEngine &engine, Policy &policy, BlockId seed,
                   size_t max_merges = 512);

/**
 * Form hyperblocks over the whole function: expands every surviving
 * block as a seed in reverse post-order, one runPhase per seed.
 */
FormationResult formHyperblocks(Function &fn, Policy &policy,
                                const FormationOptions &options);

} // namespace chf

#endif // CHF_HYPERBLOCK_CONVERGENT_H
