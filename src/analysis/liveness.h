/**
 * @file
 * Block-level live-variable analysis over virtual registers.
 *
 * Predication is handled conservatively and correctly: a predicated
 * write does not kill a register (the old value flows through when the
 * predicate is false), so only unpredicated writes enter the kill set.
 *
 * The solve runs over names, not registers: only a register some block
 * reads before an unpredicated write can be live at a block boundary,
 * and few are (130 of 1,159 on synth64 after prepare). The queries
 * answer in register space; the numbering never leaves this class.
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
#include "support/stamped_table.h"

namespace chf {

/** Live-in/live-out sets per block. */
class Liveness
{
  public:
    /** Solve every block; the result is final, nothing is dirty. */
    explicit Liveness(const Function &fn);

    /**
     * Sets of block @p id, register-indexed and universe() bits wide.
     * Current for every block after the constructor or an unbounded
     * update(); after a bounded one, only for the blocks of its
     * @p reads and the blocks they reach. Each call builds the set;
     * per-block sweeps use the queries below, which allocate nothing.
     */
    BitVector liveIn(BlockId id) const;
    BitVector liveOut(BlockId id) const;

    /** True if register @p v is live into / out of block @p id. */
    bool
    liveInContains(BlockId id, Vreg v) const
    {
        return v < nameOf.size() && nameOf[v] != kNoName &&
               ins.at(id).test(nameOf[v]);
    }

    bool
    liveOutContains(BlockId id, Vreg v) const
    {
        return v < nameOf.size() && nameOf[v] != kNoName &&
               outs.at(id).test(nameOf[v]);
    }

    /** Invoke @p fn on each register live into @p id, ascending. */
    template <typename Fn> void forEachLiveIn(BlockId id, Fn fn) const;

    /**
     * Registers live into any successor of @p bb given this analysis,
     * written into @p out (resized to universe(); a reused vector keeps
     * its capacity, so a per-block sweep allocates nothing).
     */
    void liveOutOf(const BasicBlock &bb, BitVector &out) const;

    /**
     * Width of the register-indexed sets the queries return: at least
     * fn.numVregs() at the last (re)solve.
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
     * section 6 has the proof. A register a listed block now reads
     * before writing it becomes a new name. Grows the register
     * universe to fn.numVregs(). Falls back to a full recomputation
     * when the block table or the entry changed.
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
    static constexpr uint32_t kNoName = ~uint32_t(0);

    template <typename OnUse, typename OnKill>
    void scanBlock(const BasicBlock &bb, OnUse on_use, OnKill on_kill);
    void refreshFacts(BlockId id, const BasicBlock &bb);
    void addNames(const Function &fn, uint32_t first);
    void indexDefs(BlockId id, const BasicBlock &bb);
    void rankComponents();
    bool needsWalk(const Function &fn, const PredecessorMap &preds) const;
    void dropUnreachable(const Function &fn);
    uint32_t rankLimit(const std::vector<BlockId> *reads) const;
    void markDirty(uint32_t r);
    void solveRank(uint32_t r, const PredecessorMap &preds);

    uint32_t nv = 0; // universe()
    BlockId entryBlock = kNoBlock;

    // Names: the registers some reachable block reads before an
    // unpredicated write -- the only registers that can be live at a
    // block boundary. Every per-block set below is over names, `width`
    // bits wide. The constructor numbers names in register order;
    // update() appends the registers edits expose, so names from
    // `ordered` on are kept, in register order, in grownByReg too.
    std::vector<uint32_t> nameOf; // by register; kNoName if none
    std::vector<Vreg> regOf;      // by name
    uint32_t ordered = 0;
    std::vector<uint32_t> grownByReg;
    uint32_t width = 0;

    std::vector<BitVector> ins;
    std::vector<BitVector> outs;

    // Cached per-block dataflow facts, kept so update() can re-solve a
    // rank without touching unchanged blocks. A list in succs is
    // trusted only while its block is reachable.
    std::vector<BitVector> uses;
    std::vector<BitVector> kills;
    std::vector<std::vector<BlockId>> succs;

    // Which blocks write a register unpredicated, by register: lists
    // threaded through defNodes from defHead. Built at the first new
    // name (the one-shot solves never pay for it), then appended to
    // for every listed block; a stale entry is skipped when read.
    static constexpr uint32_t kNoNode = ~uint32_t(0);
    struct DefNode
    {
        BlockId block;
        uint32_t next;
    };
    bool indexed = false;
    std::vector<uint32_t> defHead;
    std::vector<DefNode> defNodes;

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
    // scanBlock's in-block kills: the registers the block being
    // scanned has written unpredicated so far.
    StampedTable<bool> scanKilled;
};

template <typename Fn>
void
Liveness::forEachLiveIn(BlockId id, Fn fn) const
{
    // Names below `ordered` come out of the set in register order; a
    // grown name is merged in at its place from grownByReg.
    const BitVector &set = ins.at(id);
    size_t g = 0;
    auto grownBelow = [&](Vreg r) {
        for (; g < grownByReg.size() && regOf[grownByReg[g]] < r; ++g) {
            if (set.test(grownByReg[g]))
                fn(regOf[grownByReg[g]]);
        }
    };
    set.forEach([&](uint32_t n) {
        if (n < ordered) {
            grownBelow(regOf[n]);
            fn(regOf[n]);
        }
    });
    grownBelow(kNoVreg);
}

/**
 * Upward-exposed uses of a block: registers read before any
 * unpredicated write within the block (includes predicate registers and
 * the Ret value), written into @p uses, which is resized to
 * @p num_vregs and overwritten (capacity is reused across calls);
 * @p killed_scratch is working storage for the upward-exposure
 * computation.
 */
void blockUsesInto(const BasicBlock &bb, uint32_t num_vregs,
                   BitVector &uses, BitVector &killed_scratch);

} // namespace chf

#endif // CHF_ANALYSIS_LIVENESS_H
