/**
 * @file
 * Per-function analysis cache with fine-grained invalidation.
 *
 * Convergent hyperblock formation (paper Fig. 5) tests every candidate
 * merge in scratch space, so formation speed is dominated by how
 * cheaply loop / predecessor / liveness queries can be re-answered
 * after each CFG mutation. The AnalysisManager keeps one snapshot of
 * each analysis alive across queries and updates it from explicit
 * mutation events instead of rebuilding from scratch.
 *
 * Concurrency contract: an AnalysisManager is per-function, per-worker
 * state. Every cached snapshot lives inside the instance, and the
 * analysis layer keeps no mutable globals (the only statics are a pure
 * key function and a `static const` empty map), so distinct instances
 * over distinct Functions never share mutable state. This is what lets
 * chf::Session compile units on worker threads without locks: each
 * worker constructs its own manager for the function it owns
 * (session.cpp static_asserts the type is non-copyable so a snapshot
 * cannot leak across workers by value). Sharing one instance — or one
 * Function — across threads is NOT supported.
 *
 * The invalidation machinery:
 *
 *  - PredecessorMap: patched edge-by-edge (exact, ordered like
 *    Function::predecessors()).
 *  - Liveness: pending edits are applied at the next query, which
 *    solves the condensation's dirty ranks lowest first and only as far
 *    as the blocks the caller reads (liveness(reads)); the ranks above
 *    wait for a query that needs them. liveness() solves everything.
 *    Exact either way (see Liveness::update).
 *  - DominatorTree / LoopInfo: patched in place for the simple-merge
 *    splice (blockAbsorbed -- the common case during formation);
 *    invalidated on any other edge change and rebuilt lazily on the
 *    next query.
 *
 * Every CFG-mutating caller must report what it did through one of the
 * invalidation events below; the contract is documented in DESIGN.md
 * ("Analysis caching & invalidation"). Results are bit-identical to
 * fresh per-query construction; the reference is a fresh build, not a
 * switch. FormationAnalysisCheck (tests/hyperblock/test_merge_trace.cpp)
 * compares every cached analysis with a fresh build at every round of
 * real formation; tests/analysis/test_analysis_manager.cpp does so
 * after each invalidation event.
 */

#ifndef CHF_ANALYSIS_ANALYSIS_MANAGER_H
#define CHF_ANALYSIS_ANALYSIS_MANAGER_H

#include <memory>
#include <vector>

#include "analysis/dominators.h"
#include "analysis/liveness.h"
#include "analysis/loops.h"
#include "ir/function.h"
#include "support/stats.h"

namespace chf {

/** Cached analyses for one function, kept current by mutation events. */
class AnalysisManager
{
  public:
    explicit AnalysisManager(Function &fn);

    AnalysisManager(const AnalysisManager &) = delete;
    AnalysisManager &operator=(const AnalysisManager &) = delete;

    Function &function() { return fn; }

    // --- queries (lazily build or refresh the cached snapshot) ---
    const DominatorTree &dominators();
    const LoopInfo &loops();
    const PredecessorMap &predecessors();

    /** Liveness with every block solved, bit-identical to a fresh one. */
    const Liveness &liveness();

    /**
     * Liveness solved only as far as @p reads need: their sets, and
     * those of every block they reach, are exact; blocks upstream of
     * them may be stale until a later query needs them (see
     * Liveness::update).
     */
    const Liveness &liveness(const std::vector<BlockId> &reads);

    // --- invalidation events ---

    /** Drop everything (block table grew, bulk rewrite, unknown edit). */
    void invalidateAll();

    /**
     * Block @p id's instructions were replaced; @p old_succs is its
     * successor set from before the rewrite. Detects whether the edge
     * set actually changed and invalidates accordingly.
     */
    void branchesRewritten(BlockId id,
                           const std::vector<BlockId> &old_succs);

    /**
     * A simple merge committed: @p hb (the single predecessor of @p s)
     * absorbed @p s's instructions and @p s was removed. @p hb_old_succs
     * and @p s_old_succs are the successor sets both blocks had before
     * the commit. When @p hb's new successor set is exactly the splice
     * (hb_old_succs - {s}) U s_old_succs, every other block's dominators
     * and loop memberships are unchanged -- the dominator tree and loop
     * info are patched in O(changed) instead of being invalidated. Any
     * other shape (e.g. optimization folded a branch during the merge)
     * falls back to edge invalidation.
     */
    void blockAbsorbed(BlockId hb, BlockId s,
                       const std::vector<BlockId> &hb_old_succs,
                       const std::vector<BlockId> &s_old_succs);

    /**
     * Block @p id's instructions changed but its successor set did not
     * (pure dataflow edit). Cheaper than branchesRewritten: dominators,
     * loops, and predecessors all survive.
     */
    void instructionsRewritten(BlockId id);

    /** Cache-activity counters (builds / hits / patches / updates). */
    const StatSet &stats() const { return counters; }

  private:
    const Liveness &refreshLiveness(const std::vector<BlockId> *reads);

    void patchPredecessors(BlockId id,
                           const std::vector<BlockId> &old_succs,
                           const std::vector<BlockId> &new_succs);

    Function &fn;

    std::unique_ptr<DominatorTree> dom;
    std::unique_ptr<LoopInfo> loopInfo;
    std::unique_ptr<Liveness> live;

    PredecessorMap predsCache;
    bool predsValid = false;

    /** Blocks whose dataflow facts changed since `live` was computed. */
    std::vector<BlockId> pendingLive;

    StatSet counters;
};

} // namespace chf

#endif // CHF_ANALYSIS_ANALYSIS_MANAGER_H
