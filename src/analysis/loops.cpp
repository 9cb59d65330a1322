#include "analysis/loops.h"

#include <algorithm>
#include <numeric>

#include "support/fatal.h"

namespace chf {

LoopInfo::LoopInfo(const Function &fn)
    : ownedDom(std::make_unique<DominatorTree>(fn)),
      domTree(ownedDom.get())
{
    build(fn, fn.predecessors());
}

LoopInfo::LoopInfo(const Function &fn, const DominatorTree &dom,
                   const PredecessorMap &preds)
    : domTree(&dom)
{
    build(fn, preds);
}

void
LoopInfo::build(const Function &fn, const PredecessorMap &preds)
{
    blockDepth.assign(fn.blockTableSize(), 0);

    // Find back edges and group them by header.
    std::vector<std::pair<BlockId, BlockId>> back_edges;
    for (BlockId id : fn.blockIds()) {
        if (!domTree->reachable(id))
            continue;
        for (BlockId succ : fn.block(id)->successors()) {
            if (domTree->dominates(succ, id))
                back_edges.emplace_back(id, succ);
        }
    }

    // Build one natural loop per header: all blocks that can reach a
    // latch without passing through the header.
    std::vector<BlockId> headers;
    for (const auto &[latch, header] : back_edges) {
        if (std::find(headers.begin(), headers.end(), header) ==
            headers.end()) {
            headers.push_back(header);
        }
    }

    for (BlockId header : headers) {
        Loop loop;
        loop.header = header;
        std::vector<uint8_t> in_loop(fn.blockTableSize(), 0);
        in_loop[header] = 1;
        loop.blocks.push_back(header);
        std::vector<BlockId> worklist;
        for (const auto &[latch, h] : back_edges) {
            if (h != header)
                continue;
            loop.latches.push_back(latch);
            if (!in_loop[latch]) {
                in_loop[latch] = 1;
                loop.blocks.push_back(latch);
                worklist.push_back(latch);
            }
        }
        while (!worklist.empty()) {
            BlockId b = worklist.back();
            worklist.pop_back();
            for (BlockId p : preds[b]) {
                if (!domTree->reachable(p) || in_loop[p])
                    continue;
                in_loop[p] = 1;
                loop.blocks.push_back(p);
                worklist.push_back(p);
            }
        }
        std::sort(loop.blocks.begin(), loop.blocks.end());
        allLoops.push_back(std::move(loop));
    }

    // Depth: number of loops containing each block; loop depth = depth
    // of its header.
    for (const Loop &loop : allLoops) {
        for (BlockId b : loop.blocks)
            blockDepth[b]++;
    }
    for (Loop &loop : allLoops)
        loop.depth = blockDepth[loop.header];

    // Per-block tables. Natural loops with distinct headers are nested
    // or disjoint, so visiting them shallowest first leaves each block
    // the deepest loop containing it, and finds each loop's header
    // inside the loop just outside it.
    std::vector<int32_t> by_depth(allLoops.size());
    std::iota(by_depth.begin(), by_depth.end(), 0);
    std::stable_sort(by_depth.begin(), by_depth.end(),
                     [&](int32_t a, int32_t b) {
                         return allLoops[a].depth < allLoops[b].depth;
                     });
    innermost.assign(fn.blockTableSize(), -1);
    headed.assign(fn.blockTableSize(), -1);
    enclosing.assign(allLoops.size(), -1);
    for (int32_t i : by_depth) {
        const Loop &loop = allLoops[i];
        headed[loop.header] = i;
        enclosing[i] = innermost[loop.header];
        for (BlockId b : loop.blocks)
            innermost[b] = i;
    }
}

void
LoopInfo::applyBlockAbsorbed(BlockId hb, BlockId s)
{
    // s cannot be a header: a simple merge requires its only pred's
    // edge not be a back edge, so no loop disappears and no depth
    // changes. Bodies lose s; a latch s becomes a latch hb (hb
    // inherited the back edge). Keep blocks and latches in the
    // ascending order a fresh build produces. Only the loops that
    // contain s change: its innermost loop and the loops around it.
    if (s >= innermost.size())
        return;
    for (int32_t l = innermost[s]; l >= 0; l = enclosing[l]) {
        Loop &loop = allLoops[l];
        auto pos = std::lower_bound(loop.blocks.begin(),
                                    loop.blocks.end(), s);
        if (pos != loop.blocks.end() && *pos == s)
            loop.blocks.erase(pos);

        auto &latches = loop.latches;
        auto latch = std::find(latches.begin(), latches.end(), s);
        if (latch != latches.end()) {
            latches.erase(latch);
            auto at = std::lower_bound(latches.begin(), latches.end(),
                                       hb);
            if (at == latches.end() || *at != hb)
                latches.insert(at, hb);
        }
    }
    blockDepth[s] = 0;
    innermost[s] = -1;
}

bool
LoopInfo::isBackEdge(BlockId from, BlockId to) const
{
    return domTree->reachable(from) && domTree->dominates(to, from);
}

const Loop *
LoopInfo::loopOf(const std::vector<int32_t> &table, BlockId id) const
{
    if (id >= table.size() || table[id] < 0)
        return nullptr;
    return &allLoops[table[id]];
}

bool
LoopInfo::isLoopHeader(BlockId id) const
{
    return loopAt(id) != nullptr;
}

const Loop *
LoopInfo::loopAt(BlockId header) const
{
    return loopOf(headed, header);
}

const Loop *
LoopInfo::innermostContaining(BlockId id) const
{
    return loopOf(innermost, id);
}

int
LoopInfo::depth(BlockId id) const
{
    if (id >= blockDepth.size())
        return 0;
    return blockDepth[id];
}

} // namespace chf
