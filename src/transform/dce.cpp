#include "transform/dce.h"

namespace chf {

size_t
eliminateDeadCode(BasicBlock &bb, const BitVector &live_out, DceScratch &t)
{
    BitVector &live = t.live;
    live = live_out;
    std::vector<uint8_t> &keep = t.keep;
    keep.assign(bb.insts.size(), 1);
    size_t removed = 0;

    for (size_t i = bb.insts.size(); i-- > 0;) {
        const Instruction &inst = bb.insts[i];
        bool has_effect = !opcodeIsPure(inst.op) || inst.isBranch();
        if (inst.op == Opcode::Load) {
            // Loads are removable when dead: this IR's loads cannot
            // fault on any address the program can compute.
            has_effect = false;
        }
        if (!has_effect && inst.hasDest() && !live.test(inst.dest)) {
            keep[i] = 0;
            ++removed;
            continue;
        }
        // Unpredicated writes kill; predicated ones merge.
        if (inst.hasDest() && !inst.pred.valid())
            live.clear(inst.dest);
        inst.forEachUse([&](Vreg v) { live.set(v); });
    }

    if (removed > 0) {
        std::vector<Instruction> &kept = t.kept;
        kept.clear();
        kept.reserve(bb.insts.size() - removed);
        for (size_t i = 0; i < bb.insts.size(); ++i) {
            if (keep[i])
                kept.push_back(bb.insts[i]);
        }
        bb.insts.swap(kept);
    }
    return removed;
}

} // namespace chf
