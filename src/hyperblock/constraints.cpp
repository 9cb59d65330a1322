#include "hyperblock/constraints.h"

#include "support/fatal.h"

namespace chf {

BlockResources
analyzeBlock(const BasicBlock &bb, const BitVector &live_out,
             BlockAnalysisScratch &t)
{
    BlockResources res;
    res.insts = bb.size();
    res.memOps = bb.memoryOpCount();

    // One walk over the block's registers. Fanout prediction: a
    // producer can name two consumers; each extra consumer costs one
    // mov in the fanout tree (Fig. 6's fanout insertion), so count
    // in-block consumers per def until redefinition. The same walk
    // marks upward-exposed reads (register file reads) and writes, and
    // counts exit branches for the branch/output model.
    t.regs.clear();
    t.touched.clear();
    auto reg = [&](Vreg v) -> BlockAnalysisScratch::Reg & {
        if (!t.regs.contains(v))
            t.touched.push_back(v);
        return t.regs.touch(v);
    };
    for (const auto &inst : bb.insts) {
        if (inst.op == Opcode::Br)
            res.branches++;
        inst.forEachUse([&](Vreg v) {
            BlockAnalysisScratch::Reg &r = reg(v);
            ++r.consumers;
            r.exposed |= !r.killed;
        });
        if (inst.hasDest()) {
            BlockAnalysisScratch::Reg &r = reg(inst.dest);
            if (r.consumers > 2)
                res.fanoutMoves += r.consumers - 2;
            r.consumers = 0;
            r.written = true;
            r.killed |= !inst.pred.valid();
        }
    }
    for (Vreg v : t.touched) {
        const BlockAnalysisScratch::Reg &r = *t.regs.find(v);
        if (r.consumers > 2)
            res.fanoutMoves += r.consumers - 2;
        res.regReads += r.exposed;
        // Distinct written live-out registers (register file writes).
        res.regWrites +=
            r.written && v < live_out.size() && live_out.test(v);
    }

    // Null-write prediction: the pass's own count-only walk, so the
    // estimate cannot drift from the pass (and no block copy or
    // throwaway register counter is built per trial).
    res.nullWrites = predictNullWrites(bb, live_out, t.nullWrites);

    return res;
}

std::string
blockSizeReason(const TargetModel &target, size_t headroom)
{
    return concat("estimated insts + ", headroom,
                  " headroom exceed max ", target.maxInsts);
}

std::string
checkBlockLegal(const BlockResources &res, const TargetModel &target,
                size_t headroom)
{
    if (res.estimatedInsts() + headroom > target.maxInsts)
        return blockSizeReason(target, headroom);
    if (res.memOps > target.maxMemOps) {
        return concat(res.memOps, " memory ops exceed ",
                      target.maxMemOps);
    }
    // Branch/output model: 0 means exits are bounded only by the
    // instruction budget (the reference TRIPS model), so this check
    // never fires there and legacy output is untouched.
    if (target.maxBranches > 0 && res.branches > target.maxBranches) {
        return concat(res.branches, " exit branches exceed ",
                      target.maxBranches);
    }
    if (res.regReads > target.maxRegReads()) {
        return concat(res.regReads, " register reads exceed ",
                      target.maxRegReads());
    }
    if (res.regWrites > target.maxRegWrites()) {
        return concat(res.regWrites, " register writes exceed ",
                      target.maxRegWrites());
    }
    return "";
}

std::string
checkBlockLegal(const BasicBlock &bb, const BitVector &live_out,
                const TargetModel &target, size_t headroom,
                BlockAnalysisScratch &scratch)
{
    return checkBlockLegal(analyzeBlock(bb, live_out, scratch), target,
                           headroom);
}

} // namespace chf
