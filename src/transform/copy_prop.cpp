#include "transform/copy_prop.h"

#include <algorithm>

namespace chf {

size_t
copyPropagateBlock(BasicBlock &bb, CopyPropScratch &t)
{
    // Dense map from copy destination to its source operand, valid
    // until either side is redefined. Epoch stamping makes the
    // cross-call reset O(1); the active list bounds invalidation scans
    // to destinations actually touched in this block.
    if (++t.epoch == 0) {
        // Stamp wraparound (2^32 calls): flush everything once.
        std::fill(t.stamp.begin(), t.stamp.end(), 0u);
        t.epoch = 1;
    }
    t.active.clear();
    size_t rewritten = 0;

    auto lookup = [&](Vreg v) -> const Operand * {
        if (v < t.stamp.size() && t.stamp[v] == t.epoch)
            return &t.value[v];
        return nullptr;
    };
    auto invalidate = [&](Vreg v) {
        if (v < t.stamp.size() && t.stamp[v] == t.epoch)
            t.stamp[v] = 0;
        for (Vreg a : t.active) {
            if (t.stamp[a] == t.epoch && t.value[a].isReg() &&
                t.value[a].reg == v) {
                t.stamp[a] = 0;
            }
        }
    };
    auto insert = [&](Vreg dest, const Operand &src) {
        if (dest >= t.stamp.size()) {
            t.stamp.resize(dest + 1, 0u);
            t.value.resize(dest + 1);
        }
        t.value[dest] = src;
        t.stamp[dest] = t.epoch;
        t.active.push_back(dest);
    };

    for (Instruction &inst : bb.insts) {
        // Rewrite register sources.
        for (int i = 0; i < inst.numSrcs(); ++i) {
            if (!inst.srcs[i].isReg())
                continue;
            if (const Operand *src = lookup(inst.srcs[i].reg)) {
                inst.srcs[i] = *src;
                ++rewritten;
            }
        }
        // Rewrite the predicate register only when the copy source is
        // itself a register (predicates cannot hold immediates).
        if (inst.pred.valid()) {
            const Operand *src = lookup(inst.pred.reg);
            if (src && src->isReg()) {
                inst.pred.reg = src->reg;
                ++rewritten;
            }
        }

        if (inst.hasDest()) {
            invalidate(inst.dest);
            if (inst.op == Opcode::Mov && !inst.pred.valid() &&
                !(inst.srcs[0].isReg() && inst.srcs[0].reg == inst.dest)) {
                insert(inst.dest, inst.srcs[0]);
            }
        }
    }
    return rewritten;
}

size_t
coalesceMoves(BasicBlock &bb, const BitVector &live_out,
              CoalesceScratch &sc)
{
    size_t nv = live_out.size();

    // Per-register def counts, use counts, and predicate-use flags,
    // epoch-stamped: a register's slots are zeroed on first touch, so
    // a call costs O(registers mentioned) instead of O(numVregs).
    if (++sc.epoch == 0) {
        std::fill(sc.stamp.begin(), sc.stamp.end(), 0u);
        sc.epoch = 1;
    }
    if (sc.stamp.size() < nv) {
        sc.stamp.resize(nv, 0u);
        sc.defs.resize(nv, 0u);
        sc.uses.resize(nv, 0u);
        sc.predUse.resize(nv, 0u);
    }
    auto touch = [&](Vreg v) {
        if (sc.stamp[v] != sc.epoch) {
            sc.stamp[v] = sc.epoch;
            sc.defs[v] = 0;
            sc.uses[v] = 0;
            sc.predUse[v] = 0;
        }
    };
    for (const auto &inst : bb.insts) {
        for (int s = 0; s < inst.numSrcs(); ++s) {
            if (inst.srcs[s].isReg() && inst.srcs[s].reg < nv) {
                touch(inst.srcs[s].reg);
                sc.uses[inst.srcs[s].reg]++;
            }
        }
        if (inst.pred.valid() && inst.pred.reg < nv) {
            touch(inst.pred.reg);
            sc.predUse[inst.pred.reg] = 1;
        }
        if (inst.hasDest() && inst.dest < nv) {
            touch(inst.dest);
            sc.defs[inst.dest]++;
        }
    }

    size_t coalesced = 0;
    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t j = 0; j < bb.insts.size(); ++j) {
            const Instruction &mov = bb.insts[j];
            if (mov.op != Opcode::Mov || mov.pred.valid() ||
                !mov.srcs[0].isReg()) {
                continue;
            }
            Vreg t = mov.srcs[0].reg;
            Vreg x = mov.dest;
            if (t == x || t >= nv || x >= nv)
                continue;
            // t must be a one-def, one-use (this mov) local temporary.
            touch(t);
            if (sc.defs[t] != 1 || sc.uses[t] != 1 || sc.predUse[t] ||
                live_out.test(t)) {
                continue;
            }
            // Locate t's def before the mov.
            size_t i = j;
            bool found = false;
            while (i-- > 0) {
                if (bb.insts[i].hasDest() && bb.insts[i].dest == t) {
                    found = true;
                    break;
                }
            }
            if (!found || bb.insts[i].pred.valid() ||
                bb.insts[i].isBranch()) {
                continue;
            }
            // x must be untouched between the def and the mov.
            bool interference = false;
            for (size_t k = i + 1; k < j && !interference; ++k) {
                const Instruction &mid = bb.insts[k];
                if (mid.hasDest() && mid.dest == x)
                    interference = true;
                mid.forEachUse([&](Vreg v) {
                    if (v == x)
                        interference = true;
                });
            }
            if (interference)
                continue;

            bb.insts[i].dest = x;
            bb.insts.erase(bb.insts.begin() + static_cast<long>(j));
            // Exact count update replacing the old full recount: the
            // def at i moved from t to x (defs[t]--, defs[x]++) and
            // the erased mov dropped one use of t and one def of x
            // (uses[t]--, defs[x]--), so x's counts are net unchanged
            // and no predicate use was added or removed.
            sc.defs[t]--;
            sc.uses[t]--;
            ++coalesced;
            changed = true;
            break;
        }
    }
    return coalesced;
}

} // namespace chf
