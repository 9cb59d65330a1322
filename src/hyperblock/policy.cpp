#include "hyperblock/policy.h"

namespace chf {

namespace {

/** Blocks larger than this (instructions) are tail-duplicated only
 *  when the hyperblock owns most of their executions. */
constexpr size_t kTailDupLimit = 48;

/** Smallest share of a candidate's executions that justifies
 *  duplicating it into this hyperblock. */
constexpr double kDupShareFloor = 0.4;

} // namespace

int
BreadthFirstPolicy::select(const Function &fn, BlockId hb,
                           const std::vector<MergeCandidate> &candidates)
{
    (void)fn;
    (void)hb;
    int best = -1;
    int best_order = 0;
    for (size_t i = 0; i < candidates.size(); ++i) {
        const MergeCandidate &c = candidates[i];
        // Limit tail duplication: skip large blocks that would need
        // duplication (paper §5, "Limiting tail duplication"), and do
        // not duplicate a block whose executions mostly arrive from
        // elsewhere -- the copy bloats this hyperblock while barely
        // reducing the original's frequency. The size limit is waived
        // when this hyperblock owns nearly all of the candidate's
        // executions: the "duplicate" then effectively absorbs it.
        if (c.needsDup && !c.isLoopHeader && !c.isBackEdge &&
            c.blockSize > kTailDupLimit &&
            c.entryFreq < 0.75 * c.candFreq) {
            continue;
        }
        if (c.needsDup && !c.isLoopHeader && !c.isBackEdge &&
            c.candFreq > 0.0 &&
            c.entryFreq < kDupShareFloor * c.candFreq) {
            continue;
        }
        // Merging post-loop code into a loop body makes every
        // iteration fetch it uselessly; only profitable when the loop
        // exits often relative to body executions (low trip counts,
        // like the paper's ammp while loops).
        if (c.leavesLoop && c.hbFreq > 0.0 &&
            c.entryFreq < 0.34 * c.hbFreq) {
            continue;
        }
        // Merging the next iteration's header across someone else's
        // back edge duplicates the loop into a rotated copy: the
        // steady state then crosses two fat blocks per iteration
        // instead of looping on one. Unrolling proper (self back
        // edge) is handled by the Unroll merge.
        if (c.isBackEdge && c.block != hb)
            continue;
        // Peeling threshold (paper §5, "Loop peeling and unrolling"):
        // peel only when the loop's trip count is low, i.e. when a
        // meaningful share of the header's executions come through
        // this entry edge. Peeling one iteration of a hot 64-trip
        // loop bloats the predecessor for a 1.5% frequency shift.
        if (c.isLoopHeader && !c.isBackEdge && c.candFreq > 0.0 &&
            c.entryFreq < 0.25 * c.candFreq) {
            continue;
        }
        if (best < 0 || c.discoveryOrder < best_order) {
            best = static_cast<int>(i);
            best_order = c.discoveryOrder;
        }
    }
    return best;
}

int
DepthFirstPolicy::select(const Function &fn, BlockId hb,
                         const std::vector<MergeCandidate> &candidates)
{
    (void)fn;
    (void)hb;
    int best = -1;
    for (size_t i = 0; i < candidates.size(); ++i) {
        const MergeCandidate &c = candidates[i];
        if (best < 0)
            best = static_cast<int>(i);
        const MergeCandidate &b = candidates[best];
        // Highest frequency wins; prefer the most recent discovery on
        // ties so expansion keeps following the current path downward.
        if (c.entryFreq > b.entryFreq ||
            (c.entryFreq == b.entryFreq &&
             c.discoveryOrder > b.discoveryOrder)) {
            best = static_cast<int>(i);
        }
    }
    return best;
}

std::unique_ptr<Policy>
makeBreadthFirstPolicy()
{
    return std::make_unique<BreadthFirstPolicy>();
}

} // namespace chf
