/**
 * @file
 * Block-level live-variable analysis over virtual registers.
 *
 * Predication is handled conservatively and correctly: a predicated
 * write does not kill a register (the old value flows through when the
 * predicate is false), so only unpredicated writes enter the kill set.
 *
 * The analysis supports exact incremental updates (see update()): after
 * a CFG edit, only the region of blocks that can reach an edited block
 * is re-solved, which is what makes the AnalysisManager's liveness
 * cache profitable during hyperblock formation.
 */

#ifndef CHF_ANALYSIS_LIVENESS_H
#define CHF_ANALYSIS_LIVENESS_H

#include <vector>

#include "ir/function.h"
#include "support/bitvector.h"

namespace chf {

/** Live-in/live-out sets per block. */
class Liveness
{
  public:
    explicit Liveness(const Function &fn);

    const BitVector &liveIn(BlockId id) const { return ins.at(id); }
    const BitVector &liveOut(BlockId id) const { return outs.at(id); }

    /**
     * Registers live into any successor of @p bb given this analysis,
     * written into @p out (resized to universe(); a reused vector keeps
     * its capacity, so a per-block sweep allocates nothing).
     */
    void liveOutOf(const BasicBlock &bb, BitVector &out) const;

    /**
     * Virtual-register universe this analysis currently covers. At
     * least fn.numVregs() at the last (re)solve -- the universe is
     * padded so register growth between updates stays cheap. Size
     * vectors that meet liveIn()/liveOut() in set algebra from this,
     * not from fn.numVregs().
     */
    uint32_t universe() const { return nv; }

    /**
     * Incrementally re-solve after the blocks in @p changed_blocks had
     * their instructions and/or outgoing edges rewritten (removed
     * blocks may be listed; their sets go empty). @p preds must be the
     * *current* predecessor map. Grows the register universe to
     * fn.numVregs() and accounts for reachability shifts, so the result
     * is bit-identical to a from-scratch recomputation. Reachability
     * comes from the cached successor lists (the changed blocks'
     * refreshed first), not from a scan of the function's instructions.
     * Falls back to a full recomputation when the block table itself
     * grew.
     */
    void update(const Function &fn,
                const std::vector<BlockId> &changed_blocks,
                const PredecessorMap &preds);

  private:
    uint32_t nv = 0;
    std::vector<BitVector> ins;
    std::vector<BitVector> outs;

    // Cached per-block dataflow facts, kept so update() can re-solve a
    // region without touching unchanged blocks.
    std::vector<BitVector> uses;
    std::vector<BitVector> kills;
    std::vector<std::vector<BlockId>> succs;
    std::vector<uint8_t> reachableBits; // entry-reachable at last solve
};

/**
 * Upward-exposed uses of a block: registers read before any
 * unpredicated write within the block (includes predicate registers and
 * the Ret value).
 */
BitVector blockUses(const BasicBlock &bb, uint32_t num_vregs);

/** Registers written unconditionally (unpredicated defs). */
BitVector blockKills(const BasicBlock &bb, uint32_t num_vregs);

/**
 * Allocation-free variants for hot per-trial callers: @p uses /
 * @p defs (registers written at all, predicated or not) are resized
 * to @p num_vregs and overwritten (capacity is reused across calls);
 * @p killed_scratch is working storage for the upward-exposure
 * computation.
 */
void blockUsesInto(const BasicBlock &bb, uint32_t num_vregs,
                   BitVector &uses, BitVector &killed_scratch);
void blockDefsInto(const BasicBlock &bb, uint32_t num_vregs,
                   BitVector &defs);

} // namespace chf

#endif // CHF_ANALYSIS_LIVENESS_H
