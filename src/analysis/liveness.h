/**
 * @file
 * Block-level live-variable analysis over virtual registers.
 *
 * Predication is handled conservatively and correctly: a predicated
 * write does not kill a register (the old value flows through when the
 * predicate is false), so only unpredicated writes enter the kill set.
 *
 * The analysis supports exact, lazy incremental updates (see update()).
 * At its first update it ranks the condensation of the CFG: every block
 * gets the index of its strongly connected component, sinks first, so
 * an edge u -> v always has rank(u) >= rank(v). An update marks the
 * ranks of the edited blocks dirty and solves dirty ranks lowest first,
 * but only as far as the blocks its caller will read; the ranks above
 * stay dirty until a query needs them. That is what makes the
 * AnalysisManager's liveness cache cheap during hyperblock formation:
 * a committed merge re-solves the merged block's rank, and the blocks
 * upstream of it, which the next trials do not read, wait.
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
    /** Solve every block; the result is final, nothing is dirty. */
    explicit Liveness(const Function &fn);

    /**
     * Sets of block @p id. Current for every block after the
     * constructor or an unbounded update(); after a bounded one, only
     * for the blocks of its @p reads and the blocks they reach.
     */
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

    /** How update() brought the analysis up to date. */
    enum class UpdatePath
    {
        Local,   ///< patched the edited blocks' ranks, no CFG walk
        Walk,    ///< an edge into a surviving block went away: walked
                 ///< the cached successor lists to find unreachable ones
        Rebuild, ///< the block table or entry changed, or a new edge
                 ///< left the ranked blocks or climbed the rank order:
                 ///< solved from scratch
    };

    /**
     * Patch the analysis after the blocks in @p changed_blocks had
     * their instructions and/or outgoing edges rewritten (removed
     * blocks may be listed; their sets go empty), then solve. @p preds
     * must be the *current* predecessor map. With @p reads null every
     * block is solved and the result is bit-identical to a
     * from-scratch solve; otherwise only the ranks up to the highest
     * rank among @p reads are solved, which makes those blocks and
     * every block they reach exact, and the rest waits for a later
     * update. An update with nothing changed just solves.
     *
     * Reachability can only shrink without a rebuild: a new edge from
     * a reachable block must go to a reachable block of equal or lower
     * rank. Reachability is re-walked only when an edge into a
     * surviving block went away and the edit was not a splice (the
     * edge left a removed block whose every predecessor, changed and
     * surviving, now branches to the target itself) -- DESIGN.md
     * section 6 has the proof. Grows the register universe to
     * fn.numVregs(). Falls back to a full recomputation when the
     * block table or the entry changed.
     */
    UpdatePath update(const Function &fn,
                      const std::vector<BlockId> &changed_blocks,
                      const PredecessorMap &preds,
                      const std::vector<BlockId> *reads = nullptr);

    /**
     * True when nothing is dirty at or below the highest rank among
     * @p reads (every rank when @p reads is null): reading those
     * blocks needs no update().
     */
    bool solvedFor(const std::vector<BlockId> *reads = nullptr) const;

  private:
    static constexpr uint32_t kNoRank = ~uint32_t(0);

    void rankComponents();
    bool needsWalk(const Function &fn, const PredecessorMap &preds) const;
    void dropUnreachable(const Function &fn);
    uint32_t rankLimit(const std::vector<BlockId> *reads) const;
    void markDirty(uint32_t r);
    void solveRank(uint32_t r, const PredecessorMap &preds);

    uint32_t nv = 0;
    BlockId entryBlock = kNoBlock;
    std::vector<BitVector> ins;
    std::vector<BitVector> outs;

    // Cached per-block dataflow facts, kept so update() can re-solve a
    // rank without touching unchanged blocks. A list in succs is
    // trusted only while its block is reachable.
    std::vector<BitVector> uses;
    std::vector<BitVector> kills;
    std::vector<std::vector<BlockId>> succs;

    // The condensation, built at the first update from succs: rank of
    // each reachable block (kNoRank: unreachable), and the members of
    // rank r at rankMembers[rankStart[r] .. rankStart[r + 1]). Before
    // the first update a reachable block has rank 0.
    bool ranked = false;
    std::vector<uint32_t> rank;
    std::vector<uint32_t> rankStart;
    std::vector<BlockId> rankMembers;

    // Dirty ranks: a flag per rank and a min-heap of the flagged ones.
    std::vector<uint8_t> dirty;
    std::vector<uint32_t> dirtyHeap;

    // Per-update scratch, reused across updates.
    std::vector<BlockId> edited; // reachable changed blocks, sorted
    std::vector<std::vector<BlockId>> oldSuccs; // parallel to edited
    std::vector<std::pair<BlockId, BlockId>> removedEdges;
    BitVector outScratch, inScratch;
    std::vector<BitVector> oldIns;
    // A cyclic rank's worklist: a ring of its members and a queued
    // flag per block (all clear between solves).
    std::vector<BlockId> work;
    std::vector<uint8_t> queued;
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
