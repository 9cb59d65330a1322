/**
 * @file
 * Test helpers: compare an AnalysisManager's cached analyses with
 * analyses built fresh from the function's current CFG. Shared by the
 * invalidation-event tests (test_analysis_manager.cpp) and the
 * per-round formation check (tests/hyperblock/test_merge_trace.cpp).
 */

#ifndef CHF_TESTS_ANALYSIS_FRESH_ANALYSES_H
#define CHF_TESTS_ANALYSIS_FRESH_ANALYSES_H

#include <gtest/gtest.h>

#include "analysis/analysis_manager.h"
#include "analysis/dominators.h"
#include "analysis/liveness.h"
#include "analysis/loops.h"

namespace chf {

/**
 * Compare @p cached's sets of @p blocks with a fresh solve of @p fn,
 * ignoring universe padding.
 */
inline void
expectSetsMatchFresh(const Liveness &cached, const Function &fn,
                     const std::vector<BlockId> &blocks)
{
    Liveness fresh(fn);
    ASSERT_GE(cached.universe(), fn.numVregs());
    for (BlockId id : blocks) {
        const BitVector in = cached.liveIn(id), out = cached.liveOut(id);
        const BitVector want_in = fresh.liveIn(id);
        const BitVector want_out = fresh.liveOut(id);
        for (Vreg v = 0; v < fn.numVregs(); ++v) {
            EXPECT_EQ(in.test(v), want_in.test(v))
                << "live-in mismatch bb" << id << " v" << v;
            EXPECT_EQ(out.test(v), want_out.test(v))
                << "live-out mismatch bb" << id << " v" << v;
        }
    }
}

/** Compare the fully solved cached liveness to a fresh solve. */
inline void
expectLivenessMatchesFresh(AnalysisManager &am, const Function &fn)
{
    expectSetsMatchFresh(am.liveness(), fn, fn.blockIds());
}

/** Compare cached dominators/loops/preds to freshly built ones. */
inline void
expectCfgAnalysesMatchFresh(AnalysisManager &am, const Function &fn)
{
    EXPECT_EQ(am.predecessors(), fn.predecessors());

    const DominatorTree &cached = am.dominators();
    DominatorTree fresh(fn);
    for (BlockId id = 0; id < fn.blockTableSize(); ++id) {
        EXPECT_EQ(cached.reachable(id), fresh.reachable(id))
            << "reachability mismatch bb" << id;
        EXPECT_EQ(cached.idom(id), fresh.idom(id))
            << "idom mismatch bb" << id;
        for (BlockId other = 0; other < fn.blockTableSize(); ++other) {
            EXPECT_EQ(cached.dominates(id, other),
                      fresh.dominates(id, other))
                << "dominates mismatch bb" << id << " bb" << other;
        }
    }

    const LoopInfo &cached_loops = am.loops();
    LoopInfo fresh_loops(fn);
    ASSERT_EQ(cached_loops.loops().size(), fresh_loops.loops().size());
    // Compare loop-by-loop keyed by header: the relative order of
    // unrelated loops is not observable through the query interface.
    for (const Loop &want : fresh_loops.loops()) {
        const Loop *got = cached_loops.loopAt(want.header);
        ASSERT_NE(got, nullptr) << "missing loop at bb" << want.header;
        EXPECT_EQ(got->blocks, want.blocks)
            << "loop body mismatch at bb" << want.header;
        EXPECT_EQ(got->latches, want.latches)
            << "latch mismatch at bb" << want.header;
        EXPECT_EQ(got->depth, want.depth);
    }
    for (BlockId id = 0; id < fn.blockTableSize(); ++id)
        EXPECT_EQ(cached_loops.depth(id), fresh_loops.depth(id));
}

} // namespace chf

#endif // CHF_TESTS_ANALYSIS_FRESH_ANALYSES_H
