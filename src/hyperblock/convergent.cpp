#include "hyperblock/convergent.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "analysis/analysis_manager.h"
#include "analysis/loops.h"
#include "pipeline/pass_guard.h"
#include "support/cancellation.h"
#include "support/fatal.h"
#include "transform/cfg_utils.h"

namespace chf {

namespace {

/** Build candidate descriptors for the current successors of @p hb. */
std::vector<MergeCandidate>
describeCandidates(MergeEngine &engine, BlockId hb,
                   const std::vector<std::pair<BlockId, int>> &pending)
{
    Function &fn = engine.function();
    AnalysisManager &am = engine.analyses();
    const LoopInfo &loops = am.loops();
    const PredecessorMap &preds = am.predecessors();
    const BasicBlock *hb_block = fn.block(hb);
    const double hb_freq = hb_block->frequency();
    const Loop *hb_loop = loops.innermostContaining(hb);

    std::vector<MergeCandidate> out;
    out.reserve(pending.size());
    for (const auto &[block, order] : pending) {
        // expandBlock purges dead ids from pending after every commit,
        // and blocks only die on commits, so every entry is live here.
        CHF_ASSERT(fn.block(block) != nullptr,
                   "stale pending candidate bb", block);
        MergeCandidate c;
        c.block = block;
        c.discoveryOrder = order;
        c.entryFreq = branchFreqTo(*hb_block, block);
        c.needsDup = !(preds[block].size() == 1 &&
                       preds[block][0] == hb) ||
                     loops.isBackEdge(hb, block);
        c.isLoopHeader = loops.isLoopHeader(block);
        c.isBackEdge = loops.isBackEdge(hb, block);
        c.blockSize = fn.block(block)->size();
        c.candFreq = fn.block(block)->frequency();
        c.hbFreq = hb_freq;
        c.leavesLoop = hb_loop != nullptr && block != hb &&
                       !hb_loop->contains(block);
        out.push_back(c);
    }
    return out;
}

} // namespace

size_t
expandBlock(MergeEngine &engine, Policy &policy, BlockId seed,
            size_t max_merges)
{
    Function &fn = engine.function();
    if (!fn.block(seed))
        return 0;

    policy.beginBlock(engine.analyses(), seed);

    // Read the trace switch once, not per merge-loop iteration.
    const bool trace_merges =
        std::getenv("CHF_TRACE_MERGES") != nullptr;

    // Pending candidates: (block, discovery order). Duplicates are
    // avoided via the membership flags; failed candidates are dropped
    // but may be rediscovered after a later successful merge, as in the
    // paper's pseudocode (candidates := candidates U Successors(S)).
    std::vector<std::pair<BlockId, int>> pending;
    std::vector<uint8_t> in_pending(fn.blockTableSize(), 0);
    int discovery = 0;

    auto add_successors = [&]() {
        for (BlockId succ : fn.block(seed)->successors()) {
            if (succ >= in_pending.size())
                in_pending.resize(fn.blockTableSize(), 0);
            if (!in_pending[succ]) {
                in_pending[succ] = 1;
                pending.emplace_back(succ, discovery++);
            }
        }
    };
    add_successors();

    // A committed merge can remove the chosen block (Simple absorbs it)
    // but never any other pending block, so stale ids cannot linger --
    // still, the table is rebuilt from live blocks after every commit
    // rather than trusting that, and describeCandidates asserts it.
    auto purge_dead = [&]() {
        auto dead = std::remove_if(pending.begin(), pending.end(),
                                   [&](const auto &p) {
                                       return fn.block(p.first) == nullptr;
                                   });
        for (auto it = dead; it != pending.end(); ++it)
            in_pending[it->first] = 0;
        pending.erase(dead, pending.end());
    };

    // Candidate descriptors are a pure function of the CFG, the cached
    // analyses, and the pending set. Failed trials mutate none of those
    // (MergeEngine::mutationEpoch() counts every commit, split, and
    // in-place stabilization), so while the epoch stands still the
    // descriptors are reused with the failed entry dropped instead of
    // being rebuilt -- that rebuild was O(pending^2) across a seed's
    // expansion. FormationAnalysisCheck recomputes every descriptor
    // from fresh analyses at every round to hold this reuse exact.
    std::vector<MergeCandidate> candidates;
    uint64_t cached_epoch = 0;
    bool cache_valid = false;

    // Deadline poll (DESIGN.md §12): the unit's token is read once, then
    // polled every merge round (a clock read only when the unit has a
    // time budget) -- between rounds the CFG is structurally
    // consistent, so the CancelledError this may raise is
    // rollback-safe.
    const CancellationToken cancel = CancellationToken::current();

    size_t merges = 0;
    while (!pending.empty() && merges < max_merges) {
        cancel.throwIfCancelled();
        if (!cache_valid || cached_epoch != engine.mutationEpoch()) {
            candidates = describeCandidates(engine, seed, pending);
            cached_epoch = engine.mutationEpoch();
            cache_valid = true;
        }
        if (candidates.empty())
            break;

        int pick = policy.select(fn, seed, candidates);
        if (pick < 0)
            break;

        MergeCandidate chosen = candidates[pick];
        // Purge-on-commit keeps pending and the descriptor table
        // index-aligned (describeCandidates maps 1:1 over pending).
        CHF_ASSERT(static_cast<size_t>(pick) < pending.size() &&
                       pending[pick].first == chosen.block,
                   "candidate table out of sync with pending");
        pending.erase(pending.begin() + pick);
        in_pending[chosen.block] = 0;
        candidates.erase(candidates.begin() + pick);

        MergeOutcome outcome = engine.tryMerge(seed, chosen.block);
        // Set CHF_TRACE_MERGES=1 to watch expansion decisions.
        if (trace_merges) {
            std::fprintf(stderr,
                         "expand bb%u <- bb%u (freq %.0f/%.0f): %s%s\n",
                         seed, chosen.block, chosen.entryFreq,
                         chosen.candFreq,
                         outcome.success ? mergeKindName(outcome.kind)
                                         : "FAIL ",
                         outcome.success ? "" : outcome.reason.c_str());
        }
        if (outcome.success) {
            ++merges;
            purge_dead();
            add_successors();
        }
    }
    return merges;
}

FormationResult
formHyperblocks(Function &fn, Policy &policy,
                const FormationOptions &options)
{
    MergeEngine engine(fn, options.merge);

    // Expand seeds in reverse post-order; blocks merged away are
    // skipped (their id slots become null). In keep-going mode a seed
    // whose expansion corrupts the IR is rolled back alone; the
    // remaining seeds still expand.
    std::vector<BlockId> seeds = fn.reversePostOrder();
    for (BlockId seed : seeds) {
        if (!fn.block(seed))
            continue;
        runPhase(
            fn, "formation-seed", options.diags,
            [&] {
                expandBlock(engine, policy, seed,
                            options.maxMergesPerBlock);
            },
            &engine.analyses());
    }

    fn.removeUnreachable();

    FormationResult result;
    result.stats = engine.stats();
    result.stats.merge(engine.analyses().stats());
    return result;
}

} // namespace chf
