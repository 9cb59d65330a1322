#include "analysis/liveness.h"

#include <algorithm>
#include <array>
#include <functional>

namespace chf {

namespace {

/**
 * Register width of the sets the queries return. Formation allocates
 * predicate registers in nearly every trial, failed ones included, and
 * the AnalysisManager refreshes the analysis before a query once the
 * function outgrows this width; rounding up by ~25% (and to a whole
 * word) keeps those refreshes rare. Bits past fn.numVregs() are never
 * set, so results are unaffected.
 */
uint32_t
paddedUniverse(uint32_t n)
{
    uint32_t pad = std::max<uint32_t>(64, n / 4);
    return (n + pad + 63) & ~uint32_t(63);
}

/** Bits per name set for @p names names: whole words, at least one. */
uint32_t
nameCapacity(size_t names)
{
    return std::max<uint32_t>(64, (static_cast<uint32_t>(names) + 63) &
                                      ~uint32_t(63));
}

/** True if @p bb writes @p v without a predicate. */
bool
killsRegister(const BasicBlock &bb, Vreg v)
{
    for (const Instruction &inst : bb.insts) {
        if (inst.hasDest() && inst.dest == v && !inst.pred.valid())
            return true;
    }
    return false;
}

} // namespace

void
blockUsesInto(const BasicBlock &bb, uint32_t num_vregs, BitVector &uses,
              BitVector &killed_scratch)
{
    uses.resize(num_vregs);
    uses.reset();
    killed_scratch.resize(num_vregs);
    killed_scratch.reset();
    for (const auto &inst : bb.insts) {
        inst.forEachUse([&](Vreg v) {
            if (!killed_scratch.test(v))
                uses.set(v);
        });
        if (inst.hasDest() && !inst.pred.valid())
            killed_scratch.set(inst.dest);
    }
}

template <typename OnUse, typename OnKill>
void
Liveness::scanBlock(const BasicBlock &bb, OnUse on_use, OnKill on_kill)
{
    // on_use sees each read of a register not yet written unpredicated
    // in the block (a register may come twice), on_kill each
    // unpredicated write.
    scanKilled.clear();
    for (const Instruction &inst : bb.insts) {
        inst.forEachUse([&](Vreg v) {
            if (!scanKilled.contains(v))
                on_use(v);
        });
        if (inst.hasDest() && !inst.pred.valid()) {
            scanKilled.touch(inst.dest);
            on_kill(inst.dest);
        }
    }
}

void
Liveness::refreshFacts(BlockId id, const BasicBlock &bb)
{
    BitVector &use = uses[id], &kill = kills[id];
    use.reset();
    kill.reset();
    scanBlock(
        bb, [&](Vreg v) { use.set(nameOf[v]); },
        [&](Vreg v) {
            if (nameOf[v] != kNoName)
                kill.set(nameOf[v]);
        });
}

Liveness::Liveness(const Function &fn)
{
    nv = paddedUniverse(fn.numVregs());
    entryBlock = fn.entry();
    size_t table = fn.blockTableSize();
    succs.assign(table, {});
    rank.assign(table, kNoRank);
    nameOf.assign(nv, kNoName);

    // One scan of the reachable blocks marks the names and keeps each
    // block's exposed and killed registers; once the names are
    // numbered in register order, those lists become the facts.
    std::vector<BlockId> order = fn.reversePostOrder();
    std::vector<Vreg> exposed, killed;
    std::vector<std::pair<size_t, size_t>> ends; // parallel to order
    for (BlockId id : order) {
        const BasicBlock *bb = fn.block(id);
        scanBlock(
            *bb,
            [&](Vreg v) {
                nameOf[v] = 0;
                exposed.push_back(v);
            },
            [&](Vreg v) { killed.push_back(v); });
        ends.emplace_back(exposed.size(), killed.size());
        succs[id] = bb->successors();
        rank[id] = 0;
    }
    for (Vreg v = 0; v < nv; ++v) {
        if (nameOf[v] != kNoName) {
            nameOf[v] = static_cast<uint32_t>(regOf.size());
            regOf.push_back(v);
        }
    }
    ordered = static_cast<uint32_t>(regOf.size());
    width = nameCapacity(regOf.size());
    ins.assign(table, BitVector(width));
    outs.assign(table, BitVector(width));
    uses.assign(table, BitVector(width));
    kills.assign(table, BitVector(width));
    size_t e = 0, k = 0;
    for (size_t i = 0; i < order.size(); ++i) {
        const BlockId id = order[i];
        for (; e < ends[i].first; ++e)
            uses[id].set(nameOf[exposed[e]]);
        for (; k < ends[i].second; ++k) {
            if (nameOf[killed[k]] != kNoName)
                kills[id].set(nameOf[killed[k]]);
        }
    }

    // Backward fixed point: visit in post-order (reverse of RPO). The
    // scratch vectors are reused across visits to keep the solve
    // allocation-free.
    BitVector out(width), in(width);
    bool changed = true;
    while (changed) {
        changed = false;
        for (auto it = order.rbegin(); it != order.rend(); ++it) {
            BlockId id = *it;
            out.reset();
            for (BlockId s : succs[id])
                out.unionWith(ins[s]);
            in = out;
            in.subtract(kills[id]);
            in.unionWith(uses[id]);
            if (out != outs[id] || in != ins[id]) {
                outs[id] = out;
                ins[id] = in;
                changed = true;
            }
        }
    }
}

void
Liveness::indexDefs(BlockId id, const BasicBlock &bb)
{
    for (const Instruction &inst : bb.insts) {
        if (!inst.hasDest() || inst.pred.valid())
            continue;
        uint32_t &head = defHead[inst.dest];
        if (head != kNoNode && defNodes[head].block == id)
            continue;
        defNodes.push_back({id, head});
        head = static_cast<uint32_t>(defNodes.size() - 1);
    }
}

void
Liveness::addNames(const Function &fn, uint32_t first)
{
    // The first growth indexes every reachable block; later updates
    // have kept the index current for the blocks they listed.
    if (!indexed) {
        defHead.assign(nv, kNoNode);
        for (BlockId id = 0; id < rank.size(); ++id) {
            if (rank[id] != kNoRank && fn.block(id))
                indexDefs(id, *fn.block(id));
        }
        indexed = true;
    }

    // Capacity doubles, so growth never re-solves: the new names' bits
    // are clear (bottom) everywhere until the edited ranks' solve
    // reaches them.
    const uint32_t names = static_cast<uint32_t>(regOf.size());
    if (names > width) {
        while (width < names)
            width *= 2;
        for (size_t i = 0; i < ins.size(); ++i) {
            ins[i].resize(width);
            outs[i].resize(width);
            uses[i].resize(width);
            kills[i].resize(width);
        }
    }

    // A new name is killed in every block that writes it unpredicated,
    // listed or not. The listed blocks refresh their own facts.
    for (uint32_t n = first; n < names; ++n) {
        const Vreg r = regOf[n];
        for (uint32_t i = defHead[r]; i != kNoNode; i = defNodes[i].next) {
            const BlockId b = defNodes[i].block;
            if (rank[b] == kNoRank || kills[b].test(n) ||
                std::binary_search(edited.begin(), edited.end(), b))
                continue;
            const BasicBlock *bb = fn.block(b);
            if (bb && killsRegister(*bb, r))
                kills[b].set(n);
        }
        auto at = std::lower_bound(
            grownByReg.begin(), grownByReg.end(), r,
            [&](uint32_t m, Vreg reg) { return regOf[m] < reg; });
        grownByReg.insert(at, n);
    }
}

void
Liveness::rankComponents()
{
    // Iterative Tarjan from the entry over the cached successor lists,
    // which are exact for every reachable block. Tarjan emits SCCs
    // successors first, so the emission index is a rank with
    // rank(u) >= rank(v) on every edge u -> v.
    size_t table = ins.size();
    constexpr uint32_t kUnvisited = ~uint32_t(0);
    std::vector<uint32_t> index(table, kUnvisited);
    std::vector<uint32_t> low(table, 0);
    std::vector<uint8_t> on_stack(table, 0);
    std::vector<BlockId> scc_stack;
    struct Frame
    {
        BlockId b;
        size_t child;
    };
    std::vector<Frame> dfs;
    uint32_t next_index = 0;

    std::fill(rank.begin(), rank.end(), kNoRank);
    rankStart.assign(1, 0);
    rankMembers.clear();
    auto visit = [&](BlockId b) {
        index[b] = low[b] = next_index++;
        scc_stack.push_back(b);
        on_stack[b] = 1;
        dfs.push_back({b, 0});
    };
    if (entryBlock != kNoBlock)
        visit(entryBlock);
    while (!dfs.empty()) {
        Frame &f = dfs.back();
        if (f.child < succs[f.b].size()) {
            BlockId s = succs[f.b][f.child++];
            if (index[s] == kUnvisited)
                visit(s);
            else if (on_stack[s])
                low[f.b] = std::min(low[f.b], index[s]);
            continue;
        }
        BlockId b = f.b;
        dfs.pop_back();
        if (!dfs.empty())
            low[dfs.back().b] = std::min(low[dfs.back().b], low[b]);
        if (low[b] != index[b])
            continue;
        uint32_t r = static_cast<uint32_t>(rankStart.size() - 1);
        while (true) {
            BlockId m = scc_stack.back();
            scc_stack.pop_back();
            on_stack[m] = 0;
            rank[m] = r;
            rankMembers.push_back(m);
            if (m == b)
                break;
        }
        rankStart.push_back(static_cast<uint32_t>(rankMembers.size()));
    }

    dirty.assign(rankStart.size() - 1, 0);
    dirtyHeap.clear();
    ranked = true;
}

bool
Liveness::needsWalk(const Function &fn, const PredecessorMap &preds) const
{
    // Only an edge into a surviving block can cut a block off. Such an
    // edge is harmless when it left a removed block c and every
    // reachable block that branched to c is listed, survives, and now
    // branches to the target itself (one still in preds[c] was edited
    // unlisted): each path through c then has a bypass. That is a
    // splice; DESIGN.md section 6 has the proof.
    auto listed = [&](BlockId b) {
        return std::binary_search(edited.begin(), edited.end(), b);
    };
    for (const auto &[c, t] : removedEdges) {
        if (!fn.block(t)) {
            if (!listed(t))
                return true; // its own out-edges went away unlisted
            continue;
        }
        if (fn.block(c))
            return true;
        for (BlockId p : preds[c]) {
            if (rank[p] != kNoRank)
                return true;
        }
        for (size_t i = 0; i < edited.size(); ++i) {
            const std::vector<BlockId> &old = oldSuccs[i];
            if (std::find(old.begin(), old.end(), c) == old.end())
                continue;
            BlockId p = edited[i];
            const std::vector<BlockId> &now = succs[p];
            if (!fn.block(p) ||
                std::find(now.begin(), now.end(), t) == now.end())
                return true;
        }
    }
    return false;
}

void
Liveness::dropUnreachable(const Function &fn)
{
    // Walk the cached lists from the entry. Every edge of a reachable
    // block ends at a ranked block (update() checked the new ones), so
    // the walk only shrinks the ranked set.
    size_t table = ins.size();
    std::vector<uint8_t> seen(table, 0);
    std::vector<BlockId> stack;
    if (entryBlock != kNoBlock && rank[entryBlock] != kNoRank) {
        seen[entryBlock] = 1;
        stack.push_back(entryBlock);
    }
    while (!stack.empty()) {
        BlockId b = stack.back();
        stack.pop_back();
        for (BlockId s : succs[b]) {
            if (!seen[s] && rank[s] != kNoRank && fn.block(s)) {
                seen[s] = 1;
                stack.push_back(s);
            }
        }
    }
    for (size_t i = 0; i < table; ++i) {
        if (rank[i] != kNoRank && !seen[i]) {
            rank[i] = kNoRank;
            ins[i].reset();
            outs[i].reset();
        }
    }
}

uint32_t
Liveness::rankLimit(const std::vector<BlockId> *reads) const
{
    if (!reads)
        return kNoRank;
    uint32_t limit = 0;
    for (BlockId b : *reads) {
        if (b < rank.size() && rank[b] != kNoRank)
            limit = std::max(limit, rank[b] + 1);
    }
    return limit;
}

bool
Liveness::solvedFor(const std::vector<BlockId> *reads) const
{
    return dirtyHeap.empty() || dirtyHeap.front() >= rankLimit(reads);
}

void
Liveness::markDirty(uint32_t r)
{
    if (dirty[r])
        return;
    dirty[r] = 1;
    dirtyHeap.push_back(r);
    std::push_heap(dirtyHeap.begin(), dirtyHeap.end(), std::greater<>());
}

void
Liveness::solveRank(uint32_t r, const PredecessorMap &preds)
{
    // Members that left the CFG since the ranking keep their slot but
    // not their rank.
    const uint32_t begin = rankStart[r], end = rankStart[r + 1];
    size_t members = 0;
    BlockId one = kNoBlock;
    for (uint32_t i = begin; i < end; ++i) {
        if (rank[rankMembers[i]] == r) {
            ++members;
            one = rankMembers[i];
        }
    }
    if (members == 0)
        return;

    // Lower ranks are final, so a changed live-in can only change the
    // predecessors in other (higher) ranks: those go dirty.
    auto outside = [&](BlockId p) {
        return rank[p] != kNoRank && rank[p] != r;
    };
    auto changedIn = [&](BlockId b) {
        for (BlockId p : preds[b]) {
            if (outside(p))
                markDirty(rank[p]);
        }
    };
    auto transfer = [&](BlockId b) {
        outScratch.resize(width);
        outScratch.reset();
        for (BlockId s : succs[b])
            outScratch.unionWith(ins[s]);
        inScratch = outScratch;
        inScratch.subtract(kills[b]);
        inScratch.unionWith(uses[b]);
    };

    const std::vector<BlockId> &one_succs = succs[one];
    bool cyclic = members > 1 || std::find(one_succs.begin(),
                                           one_succs.end(),
                                           one) != one_succs.end();
    if (!cyclic) {
        transfer(one);
        std::swap(outs[one], outScratch);
        if (inScratch != ins[one]) {
            std::swap(ins[one], inScratch);
            changedIn(one);
        }
        return;
    }

    // A cyclic rank resets to bottom first -- a warm start could keep a
    // stale fact circling forever -- so the result is the least fixed
    // point, bit-identical to a from-scratch solve. Only members with a
    // predecessor in another rank can dirty one, so only their old
    // live-ins are kept to compare.
    auto entered = [&](BlockId b) {
        return std::any_of(preds[b].begin(), preds[b].end(), outside);
    };
    size_t kept = 0;
    for (uint32_t i = begin; i < end; ++i) {
        BlockId b = rankMembers[i];
        if (rank[b] != r)
            continue;
        if (entered(b)) {
            if (kept == oldIns.size())
                oldIns.emplace_back();
            std::swap(oldIns[kept++], ins[b]);
            ins[b].resize(width);
        }
        ins[b].reset();
        outs[b].reset();
    }
    // A worklist over the members, seeded with all of them in member
    // order: a member whose live-in changes re-queues its predecessors
    // in the rank, and the solve ends when the queue drains. A member
    // is queued at most once at a time, so a ring of `members` slots
    // holds the queue.
    if (queued.size() < ins.size())
        queued.resize(ins.size(), 0);
    if (work.size() < members)
        work.resize(members);
    size_t head = 0, queue_len = 0;
    auto enqueue = [&](BlockId b) {
        queued[b] = 1;
        work[(head + queue_len++) % members] = b;
    };
    for (uint32_t i = begin; i < end; ++i) {
        if (rank[rankMembers[i]] == r)
            enqueue(rankMembers[i]);
    }
    while (queue_len > 0) {
        BlockId b = work[head];
        head = (head + 1) % members;
        --queue_len;
        queued[b] = 0;
        transfer(b);
        std::swap(outs[b], outScratch);
        if (inScratch != ins[b]) {
            std::swap(ins[b], inScratch);
            for (BlockId p : preds[b]) {
                if (rank[p] == r && !queued[p])
                    enqueue(p);
            }
        }
    }
    kept = 0;
    for (uint32_t i = begin; i < end; ++i) {
        BlockId b = rankMembers[i];
        if (rank[b] == r && entered(b) && ins[b] != oldIns[kept++])
            changedIn(b);
    }
}

Liveness::UpdatePath
Liveness::update(const Function &fn,
                 const std::vector<BlockId> &changed_blocks,
                 const PredecessorMap &preds,
                 const std::vector<BlockId> *reads)
{
    const size_t table = ins.size();
    auto rebuild = [&] {
        *this = Liveness(fn);
        return UpdatePath::Rebuild;
    };
    if (fn.blockTableSize() != table || fn.entry() != entryBlock)
        return rebuild();

    if (fn.numVregs() > nv) {
        nv = paddedUniverse(fn.numVregs());
        nameOf.resize(nv, kNoName);
        if (indexed)
            defHead.resize(nv, kNoNode);
    }
    if (!ranked)
        rankComponents();

    // Only reachable blocks matter: an unreachable one stays at bottom
    // until an edge into it rebuilds the analysis.
    edited.clear();
    for (BlockId c : changed_blocks) {
        if (c < table && rank[c] != kNoRank)
            edited.push_back(c);
    }
    std::sort(edited.begin(), edited.end());
    edited.erase(std::unique(edited.begin(), edited.end()), edited.end());

    // Refresh the edited blocks' successor lists. A new edge must stay
    // inside the reachable set and must not climb the rank order;
    // otherwise the condensation is stale and a rebuild is the patch.
    oldSuccs.resize(edited.size());
    removedEdges.clear();
    for (size_t i = 0; i < edited.size(); ++i) {
        BlockId c = edited[i];
        const BasicBlock *bb = fn.block(c);
        oldSuccs[i].swap(succs[c]);
        if (bb)
            succs[c] = bb->successors();
        else
            succs[c].clear();
        for (BlockId t : succs[c]) {
            if (t >= table || !fn.block(t) || rank[t] == kNoRank ||
                rank[t] > rank[c])
                return rebuild();
        }
        for (BlockId t : oldSuccs[i]) {
            if (std::find(succs[c].begin(), succs[c].end(), t) ==
                succs[c].end())
                removedEdges.emplace_back(c, t);
        }
    }

    const bool walk = needsWalk(fn, preds);
    for (BlockId c : edited) {
        if (!fn.block(c)) {
            rank[c] = kNoRank;
            ins[c].reset();
            outs[c].reset();
        }
    }
    if (walk)
        dropUnreachable(fn);

    // Refresh the local facts of the edited blocks that are still on
    // the CFG and mark their ranks dirty. A register one of them now
    // reads before writing it (a predicated def followed by a use)
    // becomes a new name first.
    const uint32_t first_new = static_cast<uint32_t>(regOf.size());
    for (BlockId c : edited) {
        if (rank[c] == kNoRank)
            continue;
        const BasicBlock &bb = *fn.block(c);
        if (indexed)
            indexDefs(c, bb);
        scanBlock(
            bb,
            [&](Vreg v) {
                if (nameOf[v] == kNoName) {
                    nameOf[v] = static_cast<uint32_t>(regOf.size());
                    regOf.push_back(v);
                }
            },
            [](Vreg) {});
    }
    if (regOf.size() > first_new)
        addNames(fn, first_new);
    for (BlockId c : edited) {
        if (rank[c] == kNoRank)
            continue;
        refreshFacts(c, *fn.block(c));
        markDirty(rank[c]);
    }

    // Solve lowest rank first, and only as far as the caller reads.
    const uint32_t limit = rankLimit(reads);
    while (!dirtyHeap.empty() && dirtyHeap.front() < limit) {
        std::pop_heap(dirtyHeap.begin(), dirtyHeap.end(),
                      std::greater<>());
        uint32_t r = dirtyHeap.back();
        dirtyHeap.pop_back();
        dirty[r] = 0;
        solveRank(r, preds);
    }
    return walk ? UpdatePath::Walk : UpdatePath::Local;
}

BitVector
Liveness::liveIn(BlockId id) const
{
    BitVector out(nv);
    ins.at(id).forEach([&](uint32_t n) { out.set(regOf[n]); });
    return out;
}

BitVector
Liveness::liveOut(BlockId id) const
{
    BitVector out(nv);
    outs.at(id).forEach([&](uint32_t n) { out.set(regOf[n]); });
    return out;
}

void
Liveness::liveOutOf(const BasicBlock &bb, BitVector &out) const
{
    // Size to the universe this analysis was computed over: registers
    // allocated after construction cannot be live across blocks yet.
    out.resize(nv);
    out.reset();
    // Union the targets' name sets a chunk of words at a time, so that
    // a name live into several targets is translated once.
    constexpr size_t kChunk = 16;
    const size_t words = width / 64;
    for (size_t base = 0; base < words; base += kChunk) {
        const size_t n = std::min(kChunk, words - base);
        std::array<uint64_t, kChunk> acc;
        std::fill_n(acc.begin(), n, 0);
        for (const Instruction &inst : bb.insts) {
            if (inst.op != Opcode::Br)
                continue;
            const BitVector &in = ins.at(inst.target);
            for (size_t w = 0; w < n; ++w)
                acc[w] |= in.word(base + w);
        }
        for (size_t w = 0; w < n; ++w) {
            for (uint64_t bits = acc[w]; bits; bits &= bits - 1)
                out.set(regOf[(base + w) * 64 + __builtin_ctzll(bits)]);
        }
    }
}

} // namespace chf
