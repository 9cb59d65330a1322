/**
 * @file
 * Natural-loop analysis on top of the dominator tree.
 *
 * Head duplication needs to answer two questions about a candidate merge
 * (paper Fig. 5): is HB -> S a back edge, and is S a loop header. Loops
 * are identified as natural loops of back edges (target dominates
 * source); back edges sharing a header are merged into one loop.
 */

#ifndef CHF_ANALYSIS_LOOPS_H
#define CHF_ANALYSIS_LOOPS_H

#include <algorithm>
#include <memory>
#include <vector>

#include "analysis/dominators.h"
#include "ir/function.h"

namespace chf {

/** One natural loop. */
struct Loop
{
    BlockId header = kNoBlock;

    /** Member block ids (header included), ascending. */
    std::vector<BlockId> blocks;

    /** Source blocks of back edges into the header. */
    std::vector<BlockId> latches;

    /** Nesting depth: 1 for outermost. */
    int depth = 1;

    bool
    contains(BlockId id) const
    {
        return std::binary_search(blocks.begin(), blocks.end(), id);
    }
};

/** All natural loops of a function. */
class LoopInfo
{
  public:
    explicit LoopInfo(const Function &fn);

    /**
     * Build on top of an existing dominator tree and predecessor map
     * (typically the AnalysisManager's cached copies) instead of
     * recomputing both. @p dom and @p preds must describe the current
     * CFG, and @p dom must outlive this LoopInfo.
     */
    LoopInfo(const Function &fn, const DominatorTree &dom,
             const PredecessorMap &preds);

    /**
     * Patch for a committed simple merge (see
     * DominatorTree::applyBlockAbsorbed): @p s was spliced out of every
     * CFG walk, so the loops are the same loops minus @p s, with @p hb
     * taking over any back edge @p s carried. Call after patching the
     * borrowed dominator tree. Patches the per-block tables too.
     */
    void applyBlockAbsorbed(BlockId hb, BlockId s);

    /** True if @p from -> @p to is a back edge (to dominates from). */
    bool isBackEdge(BlockId from, BlockId to) const;

    /** True if some back edge targets @p id. */
    bool isLoopHeader(BlockId id) const;

    /** The loop headed by @p header; nullptr if none. */
    const Loop *loopAt(BlockId header) const;

    /** Innermost loop containing @p id; nullptr if not in any loop. */
    const Loop *innermostContaining(BlockId id) const;

    /** Nesting depth of @p id (0 if in no loop). */
    int depth(BlockId id) const;

    const std::vector<Loop> &loops() const { return allLoops; }

    const DominatorTree &dominators() const { return *domTree; }

  private:
    void build(const Function &fn, const PredecessorMap &preds);

    /** @p table's entry for @p id as a loop; nullptr if none. */
    const Loop *loopOf(const std::vector<int32_t> &table, BlockId id) const;

    std::unique_ptr<DominatorTree> ownedDom; // set by the fn-only ctor
    const DominatorTree *domTree;
    std::vector<Loop> allLoops;
    // Per-block tables, by block id: loop nesting depth, the index in
    // allLoops of the innermost loop containing the block, and of the
    // loop it heads (-1: none). By loop index: the loop just outside.
    std::vector<int> blockDepth;
    std::vector<int32_t> innermost;
    std::vector<int32_t> headed;
    std::vector<int32_t> enclosing;
};

} // namespace chf

#endif // CHF_ANALYSIS_LOOPS_H
