#include "analysis/liveness.h"

#include <algorithm>

namespace chf {

namespace {

/**
 * Bitvector universe padding. Formation allocates predicate registers
 * on nearly every merge; if the analysis tracked exactly
 * fn.numVregs() bits, every incremental update would resize every
 * bitvector of every block. Rounding the universe up by ~25% (and to a
 * whole word) makes growth resizes logarithmic in total register
 * growth. Padding bits are never set, so results are unaffected.
 */
uint32_t
paddedUniverse(uint32_t n)
{
    uint32_t pad = std::max<uint32_t>(64, n / 4);
    return (n + pad + 63) & ~uint32_t(63);
}

} // namespace

BitVector
blockUses(const BasicBlock &bb, uint32_t num_vregs)
{
    BitVector uses;
    BitVector killed;
    blockUsesInto(bb, num_vregs, uses, killed);
    return uses;
}

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

BitVector
blockKills(const BasicBlock &bb, uint32_t num_vregs)
{
    BitVector kills(num_vregs);
    for (const auto &inst : bb.insts) {
        if (inst.hasDest() && !inst.pred.valid())
            kills.set(inst.dest);
    }
    return kills;
}

BitVector
blockDefs(const BasicBlock &bb, uint32_t num_vregs)
{
    BitVector defs;
    blockDefsInto(bb, num_vregs, defs);
    return defs;
}

void
blockDefsInto(const BasicBlock &bb, uint32_t num_vregs, BitVector &defs)
{
    defs.resize(num_vregs);
    defs.reset();
    for (const auto &inst : bb.insts) {
        if (inst.hasDest())
            defs.set(inst.dest);
    }
}

Liveness::Liveness(const Function &fn)
{
    nv = paddedUniverse(fn.numVregs());
    size_t table = fn.blockTableSize();
    ins.assign(table, BitVector(nv));
    outs.assign(table, BitVector(nv));
    uses.assign(table, BitVector(nv));
    kills.assign(table, BitVector(nv));
    succs.assign(table, {});
    reachableBits.assign(table, 0);

    std::vector<BlockId> order = fn.reversePostOrder();
    for (BlockId id : order) {
        const BasicBlock *bb = fn.block(id);
        uses[id] = blockUses(*bb, nv);
        kills[id] = blockKills(*bb, nv);
        succs[id] = bb->successors();
        reachableBits[id] = 1;
    }

    // Backward fixed point: visit in post-order (reverse of RPO). The
    // scratch vectors are reused across visits to keep the solve
    // allocation-free.
    BitVector out(nv), in(nv);
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
Liveness::update(const Function &fn,
                 const std::vector<BlockId> &changed_blocks,
                 const PredecessorMap &preds)
{
    size_t table = ins.size();
    if (fn.blockTableSize() != table) {
        // New blocks appeared: no cheap patch, recompute.
        *this = Liveness(fn);
        return;
    }

    if (fn.numVregs() > nv) {
        uint32_t padded = paddedUniverse(fn.numVregs());
        for (size_t i = 0; i < table; ++i) {
            ins[i].resize(padded);
            outs[i].resize(padded);
            uses[i].resize(padded);
            kills[i].resize(padded);
        }
        nv = padded;
    }

    // Edge rewrites can shift reachability. Blocks that fell off the
    // CFG go to bottom (a from-scratch solve never visits them); blocks
    // that joined it count as changed so their facts get computed.
    std::vector<uint8_t> now(table, 0);
    for (BlockId id : fn.reversePostOrder())
        now[id] = 1;

    std::vector<BlockId> changed = changed_blocks;
    for (size_t i = 0; i < table; ++i) {
        if (reachableBits[i] && !now[i]) {
            ins[i].reset();
            outs[i].reset();
        } else if (!reachableBits[i] && now[i]) {
            changed.push_back(static_cast<BlockId>(i));
        }
    }
    reachableBits = now;

    std::sort(changed.begin(), changed.end());
    changed.erase(std::unique(changed.begin(), changed.end()),
                  changed.end());

    // Refresh the local facts of the changed blocks; removed or
    // unreachable ones just go (stay) empty.
    std::vector<uint8_t> is_seed(table, 0);
    std::vector<BlockId> seeds;
    for (BlockId c : changed) {
        if (c >= table)
            continue;
        const BasicBlock *bb = fn.block(c);
        if (!bb || !now[c]) {
            ins[c].reset();
            outs[c].reset();
            continue;
        }
        uses[c] = blockUses(*bb, nv);
        kills[c] = blockKills(*bb, nv);
        succs[c] = bb->successors();
        seeds.push_back(c);
        is_seed[c] = 1;
    }
    if (seeds.empty())
        return;

    // Liveness flows backward, so only blocks that can *reach* a
    // changed block can change solution. Collect that region over the
    // predecessor map.
    std::vector<uint8_t> in_region(table, 0);
    std::vector<BlockId> region = seeds;
    for (BlockId s : region)
        in_region[s] = 1;
    for (size_t qi = 0; qi < region.size(); ++qi) {
        for (BlockId p : preds[region[qi]]) {
            if (p < table && now[p] && !in_region[p]) {
                in_region[p] = 1;
                region.push_back(p);
            }
        }
    }

    // Condense the region into SCCs (iterative Tarjan over the succ
    // edges restricted to the region). Tarjan emits SCCs successors
    // first -- exactly the evaluation order a backward problem wants:
    // by the time an SCC is solved, every solution it reads is final.
    constexpr uint32_t kUnvisited = ~uint32_t(0);
    std::vector<uint32_t> index(table, kUnvisited);
    std::vector<uint32_t> low(table, 0);
    std::vector<uint8_t> on_stack(table, 0);
    std::vector<BlockId> scc_stack;
    std::vector<std::vector<BlockId>> sccs;
    uint32_t next_index = 0;

    struct Frame
    {
        BlockId b;
        size_t child;
    };
    std::vector<Frame> dfs;
    for (BlockId root : region) {
        if (index[root] != kUnvisited)
            continue;
        index[root] = low[root] = next_index++;
        scc_stack.push_back(root);
        on_stack[root] = 1;
        dfs.push_back({root, 0});
        while (!dfs.empty()) {
            Frame &f = dfs.back();
            if (f.child < succs[f.b].size()) {
                BlockId s = succs[f.b][f.child++];
                if (s >= table || !in_region[s])
                    continue;
                if (index[s] == kUnvisited) {
                    index[s] = low[s] = next_index++;
                    scc_stack.push_back(s);
                    on_stack[s] = 1;
                    dfs.push_back({s, 0});
                } else if (on_stack[s]) {
                    low[f.b] = std::min(low[f.b], index[s]);
                }
            } else {
                BlockId b = f.b;
                dfs.pop_back();
                if (!dfs.empty()) {
                    low[dfs.back().b] =
                        std::min(low[dfs.back().b], low[b]);
                }
                if (low[b] == index[b]) {
                    sccs.emplace_back();
                    while (true) {
                        BlockId m = scc_stack.back();
                        scc_stack.pop_back();
                        on_stack[m] = 0;
                        sccs.back().push_back(m);
                        if (m == b)
                            break;
                    }
                }
            }
        }
    }

    // Solve SCCs in emission order, change-driven: an SCC is recomputed
    // only if it holds a seed or reads a value that changed, and
    // propagation stops as soon as recomputation reproduces the old
    // solution. Cyclic SCCs reset to bottom first -- a warm start could
    // sustain a stale value around the cycle forever -- so the result
    // is the least fixed point, bit-identical to a from-scratch solve.
    std::vector<uint8_t> value_changed(table, 0);
    BitVector out_s(nv), in_s(nv);
    std::vector<BitVector> old_ins;

    for (const auto &scc : sccs) {
        bool needs = false;
        for (BlockId b : scc) {
            if (is_seed[b]) {
                needs = true;
                break;
            }
            for (BlockId s : succs[b]) {
                if (s < table && value_changed[s]) {
                    needs = true;
                    break;
                }
            }
            if (needs)
                break;
        }
        if (!needs)
            continue;

        bool cyclic = scc.size() > 1;
        if (!cyclic) {
            for (BlockId s : succs[scc[0]]) {
                if (s == scc[0])
                    cyclic = true;
            }
        }

        if (!cyclic) {
            BlockId b = scc[0];
            out_s.reset();
            for (BlockId s : succs[b])
                out_s.unionWith(ins[s]);
            in_s = out_s;
            in_s.subtract(kills[b]);
            in_s.unionWith(uses[b]);
            if (in_s != ins[b]) {
                ins[b] = in_s;
                value_changed[b] = 1;
            }
            outs[b] = out_s;
        } else {
            old_ins.clear();
            old_ins.reserve(scc.size());
            for (BlockId b : scc) {
                old_ins.push_back(ins[b]);
                ins[b].reset();
                outs[b].reset();
            }
            bool iter = true;
            while (iter) {
                iter = false;
                for (BlockId b : scc) {
                    out_s.reset();
                    for (BlockId s : succs[b])
                        out_s.unionWith(ins[s]);
                    in_s = out_s;
                    in_s.subtract(kills[b]);
                    in_s.unionWith(uses[b]);
                    if (out_s != outs[b] || in_s != ins[b]) {
                        outs[b] = out_s;
                        ins[b] = in_s;
                        iter = true;
                    }
                }
            }
            for (size_t i = 0; i < scc.size(); ++i) {
                if (ins[scc[i]] != old_ins[i])
                    value_changed[scc[i]] = 1;
            }
        }
    }
}

BitVector
Liveness::liveOutOf(const Function &fn, const BasicBlock &bb) const
{
    // Size to the universe this analysis was computed over: registers
    // allocated after construction cannot be live across blocks yet.
    (void)fn;
    BitVector out(nv);
    for (BlockId s : bb.successors())
        out.unionWith(ins.at(s));
    return out;
}

} // namespace chf
