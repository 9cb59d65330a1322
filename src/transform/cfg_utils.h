/**
 * @file
 * CFG editing utilities shared by the transforms: block cloning with
 * edge remapping, branch redirection, and frequency bookkeeping.
 *
 * Invalidation contract: none of these helpers notify the analysis
 * cache. A caller holding a chf::AnalysisManager must report each
 * mutation through the matching event -- branchesRewritten() after
 * redirectBranches(), invalidateAll() after cloneRegion() or
 * splitBlockAt() (the block table grew), blockAbsorbed() when a merge
 * removes a block. See DESIGN.md, "Analysis caching &
 * invalidation". Frequency-only edits (scaleBranchFreqs) need no event:
 * no cached analysis reads frequencies.
 */

#ifndef CHF_TRANSFORM_CFG_UTILS_H
#define CHF_TRANSFORM_CFG_UTILS_H

#include <map>
#include <vector>

#include "ir/function.h"

namespace chf {

/** Indices of branch instructions in @p bb that target @p target. */
std::vector<size_t> branchesTo(const BasicBlock &bb, BlockId target);

/** Sum of frequencies of branches in @p bb targeting @p target. */
double branchFreqTo(const BasicBlock &bb, BlockId target);

/** Retarget every branch in @p bb aimed at @p from to @p to. */
void redirectBranches(BasicBlock &bb, BlockId from, BlockId to);

/** Multiply every branch frequency in @p bb by @p factor. */
void scaleBranchFreqs(BasicBlock &bb, double factor);

/**
 * Clone a set of blocks. Branches among cloned blocks are remapped to
 * the clones; branches leaving the set keep their original targets.
 * Returns the old-id -> new-id map. Clone branch frequencies are scaled
 * by @p freq_scale and the originals by (1 - freq_scale).
 */
std::map<BlockId, BlockId> cloneRegion(Function &fn,
                                       const std::vector<BlockId> &blocks,
                                       double freq_scale);

/**
 * The probability-weighted share of @p s's executions that arrive via
 * branches from @p hb (0 when @p s never executes).
 */
double entryShare(const BasicBlock &hb, const BasicBlock &s);

} // namespace chf

#endif // CHF_TRANSFORM_CFG_UTILS_H
