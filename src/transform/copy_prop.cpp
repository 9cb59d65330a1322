#include "transform/copy_prop.h"

namespace chf {

size_t
copyPropagateBlock(BasicBlock &bb, CopyPropScratch &t)
{
    // Copy destination -> source operand, valid until either side is
    // redefined. The active list bounds invalidation scans to
    // destinations actually inserted in this block.
    t.copies.clear();
    t.active.clear();
    size_t rewritten = 0;

    auto invalidate = [&](Vreg v) {
        t.copies.erase(v);
        for (Vreg a : t.active) {
            const Operand *src = t.copies.find(a);
            if (src && src->isReg() && src->reg == v)
                t.copies.erase(a);
        }
    };

    for (Instruction &inst : bb.insts) {
        // Rewrite register sources.
        for (int i = 0; i < inst.numSrcs(); ++i) {
            if (!inst.srcs[i].isReg())
                continue;
            if (const Operand *src = t.copies.find(inst.srcs[i].reg)) {
                inst.srcs[i] = *src;
                ++rewritten;
            }
        }
        // Rewrite the predicate register only when the copy source is
        // itself a register (predicates cannot hold immediates).
        if (inst.pred.valid()) {
            const Operand *src = t.copies.find(inst.pred.reg);
            if (src && src->isReg()) {
                inst.pred.reg = src->reg;
                ++rewritten;
            }
        }

        if (inst.hasDest()) {
            invalidate(inst.dest);
            if (inst.op == Opcode::Mov && !inst.pred.valid() &&
                !(inst.srcs[0].isReg() && inst.srcs[0].reg == inst.dest)) {
                t.copies.touch(inst.dest) = inst.srcs[0];
                t.active.push_back(inst.dest);
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
    // for the registers the block mentions.
    sc.counts.clear();
    for (const auto &inst : bb.insts) {
        for (int s = 0; s < inst.numSrcs(); ++s) {
            if (inst.srcs[s].isReg() && inst.srcs[s].reg < nv)
                sc.counts.touch(inst.srcs[s].reg).uses++;
        }
        if (inst.pred.valid() && inst.pred.reg < nv)
            sc.counts.touch(inst.pred.reg).predUse = true;
        if (inst.hasDest() && inst.dest < nv)
            sc.counts.touch(inst.dest).defs++;
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
            CoalesceScratch::Counts &tc = sc.counts.touch(t);
            if (tc.defs != 1 || tc.uses != 1 || tc.predUse ||
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
            tc.defs--;
            tc.uses--;
            ++coalesced;
            changed = true;
            break;
        }
    }
    return coalesced;
}

} // namespace chf
