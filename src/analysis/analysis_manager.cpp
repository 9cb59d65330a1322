#include "analysis/analysis_manager.h"

#include <algorithm>

#include "support/timer.h"

namespace chf {

namespace {

bool
contains(const std::vector<BlockId> &list, BlockId id)
{
    return std::find(list.begin(), list.end(), id) != list.end();
}

/** Compare successor lists as sets (order-insensitive). */
bool
sameEdgeSet(const std::vector<BlockId> &a, const std::vector<BlockId> &b)
{
    if (a.size() != b.size())
        return false;
    for (BlockId id : a) {
        if (!contains(b, id))
            return false;
    }
    return true;
}

} // namespace

AnalysisManager::AnalysisManager(Function &fn) : fn(fn) {}

const DominatorTree &
AnalysisManager::dominators()
{
    if (!dom) {
        const PredecessorMap &preds = predecessors();
        ScopedStatTimer t(counters, "usAnalysisDom");
        dom = std::make_unique<DominatorTree>(fn, preds);
        counters.add("analysisDomBuilds");
    } else {
        counters.add("analysisDomHits");
    }
    return *dom;
}

const LoopInfo &
AnalysisManager::loops()
{
    if (!loopInfo) {
        // Reuse the cached dominator tree and predecessor map; the
        // borrowed tree stays alive as long as this LoopInfo does
        // because every invalidation path resets both together.
        const DominatorTree &dt = dominators();
        const PredecessorMap &preds = predecessors();
        ScopedStatTimer t(counters, "usAnalysisLoops");
        loopInfo = std::make_unique<LoopInfo>(fn, dt, preds);
        counters.add("analysisLoopBuilds");
    } else {
        counters.add("analysisLoopHits");
    }
    return *loopInfo;
}

const PredecessorMap &
AnalysisManager::predecessors()
{
    if (!predsValid) {
        predsCache = fn.predecessors();
        predsValid = true;
        counters.add("analysisPredsBuilds");
    } else {
        counters.add("analysisPredsHits");
    }
    return predsCache;
}

const Liveness &
AnalysisManager::liveness()
{
    return refreshLiveness(nullptr);
}

const Liveness &
AnalysisManager::liveness(const std::vector<BlockId> &reads)
{
    return refreshLiveness(&reads);
}

const Liveness &
AnalysisManager::refreshLiveness(const std::vector<BlockId> *reads)
{
    if (!live) {
        live = std::make_unique<Liveness>(fn);
        pendingLive.clear();
        counters.add("analysisLivenessBuilds");
        return *live;
    }
    const bool edits =
        !pendingLive.empty() || live->universe() < fn.numVregs();
    if (!edits && live->solvedFor(reads)) {
        counters.add("analysisLivenessHits");
        return *live;
    }
    // predecessors() first: a solve marks predecessors' ranks dirty.
    const PredecessorMap &preds = predecessors();
    Liveness::UpdatePath path = live->update(fn, pendingLive, preds, reads);
    pendingLive.clear();
    if (edits)
        counters.add("analysisLivenessUpdates");
    if (path == Liveness::UpdatePath::Walk)
        counters.add("analysisLivenessWalks");
    else if (path == Liveness::UpdatePath::Rebuild)
        counters.add("analysisLivenessRebuilds");
    return *live;
}

void
AnalysisManager::invalidateAll()
{
    dom.reset();
    loopInfo.reset();
    live.reset();
    predsValid = false;
    predsCache.clear();
    pendingLive.clear();
    counters.add("analysisInvalidateAll");
}

void
AnalysisManager::branchesRewritten(BlockId id,
                                   const std::vector<BlockId> &old_succs)
{
    if (id >= fn.blockTableSize()) {
        invalidateAll();
        return;
    }
    const BasicBlock *bb = fn.block(id);
    std::vector<BlockId> new_succs =
        bb ? bb->successors() : std::vector<BlockId>();
    if (!sameEdgeSet(old_succs, new_succs)) {
        patchPredecessors(id, old_succs, new_succs);
        dom.reset();
        loopInfo.reset();
        counters.add("analysisEdgeInvalidations");
    }
    if (live)
        pendingLive.push_back(id);
}

void
AnalysisManager::blockAbsorbed(BlockId hb, BlockId s,
                               const std::vector<BlockId> &hb_old_succs,
                               const std::vector<BlockId> &s_old_succs)
{
    const BasicBlock *bb =
        hb < fn.blockTableSize() ? fn.block(hb) : nullptr;
    if (!bb) {
        invalidateAll();
        return;
    }
    std::vector<BlockId> new_succs = bb->successors();

    // The splice shape: hb's new out-edges are its old ones minus the
    // edge into s, plus s's old out-edges. Anything else (e.g. merge
    // optimization folded a branch away) invalidates as a generic edge
    // change would.
    std::vector<BlockId> expect;
    for (BlockId t : hb_old_succs) {
        if (t != s && !contains(expect, t))
            expect.push_back(t);
    }
    for (BlockId t : s_old_succs) {
        if (!contains(expect, t))
            expect.push_back(t);
    }
    bool splice = sameEdgeSet(expect, new_succs);

    patchPredecessors(hb, hb_old_succs, new_succs);
    patchPredecessors(s, s_old_succs, {});
    if (predsValid && s < predsCache.size())
        predsCache[s].clear();

    if (splice && dom && dom->reachable(hb) && dom->reachable(s) &&
        dom->idom(s) == hb) {
        dom->applyBlockAbsorbed(hb, s);
        if (loopInfo)
            loopInfo->applyBlockAbsorbed(hb, s);
        counters.add("analysisDomPatches");
    } else {
        dom.reset();
        loopInfo.reset();
        counters.add("analysisEdgeInvalidations");
    }

    if (live) {
        pendingLive.push_back(hb);
        pendingLive.push_back(s);
    }
    counters.add("analysisBlockRemovals");
}

void
AnalysisManager::instructionsRewritten(BlockId id)
{
    if (live)
        pendingLive.push_back(id);
}

void
AnalysisManager::patchPredecessors(BlockId id,
                                   const std::vector<BlockId> &old_succs,
                                   const std::vector<BlockId> &new_succs)
{
    if (!predsValid)
        return;
    for (BlockId t : old_succs) {
        if (contains(new_succs, t) || t >= predsCache.size())
            continue;
        auto &list = predsCache[t];
        list.erase(std::remove(list.begin(), list.end(), id), list.end());
    }
    for (BlockId t : new_succs) {
        if (contains(old_succs, t) || t >= predsCache.size())
            continue;
        auto &list = predsCache[t];
        auto pos = std::lower_bound(list.begin(), list.end(), id);
        if (pos == list.end() || *pos != id)
            list.insert(pos, id);
    }
    counters.add("analysisPredsPatches");
}

} // namespace chf
