#include "hyperblock/constraints.h"

#include <algorithm>

#include "analysis/liveness.h"
#include "support/fatal.h"

namespace chf {

BlockResources
analyzeBlock(const Function &fn, const BasicBlock &bb,
             const BitVector &live_out, BlockAnalysisScratch &t)
{
    BlockResources res;
    res.insts = bb.size();
    res.memOps = bb.memoryOpCount();

    // The caller's live_out may be sized to a (padded) liveness
    // universe larger than the function's register count; follow it so
    // the set algebra below stays size-consistent.
    uint32_t nv = std::max(fn.numVregs(),
                           static_cast<uint32_t>(live_out.size()));

    // Distinct upward-exposed reads (register file reads).
    blockUsesInto(bb, nv, t.uses, t.killed);
    res.regReads = t.uses.count();

    // Distinct written live-out registers (register file writes).
    blockDefsInto(bb, nv, t.defs);
    t.defs.intersectWith(live_out);
    res.regWrites = t.defs.count();

    // Fanout prediction: a producer can name two consumers; each extra
    // consumer costs one mov in the fanout tree (Fig. 6's fanout
    // insertion). Count in-block consumers per def until redefinition,
    // in the epoch-stamped per-register table. The same walk counts
    // exit branches for the branch/output model.
    if (++t.epoch == 0) {
        // Stamp wraparound (2^32 trials): flush everything once.
        for (BlockAnalysisScratch::Consumers &c : t.consumers)
            c.stamp = 0;
        t.epoch = 1;
    }
    t.touched.clear();
    auto consumers = [&](Vreg v) -> uint32_t & {
        if (v >= t.consumers.size())
            t.consumers.resize(static_cast<size_t>(v) + 1);
        BlockAnalysisScratch::Consumers &c = t.consumers[v];
        if (c.stamp != t.epoch) {
            c = {t.epoch, 0};
            t.touched.push_back(v);
        }
        return c.count;
    };
    for (const auto &inst : bb.insts) {
        if (inst.op == Opcode::Br)
            res.branches++;
        inst.forEachUse([&](Vreg v) { ++consumers(v); });
        if (inst.hasDest()) {
            uint32_t &count = consumers(inst.dest);
            if (count > 2)
                res.fanoutMoves += count - 2;
            count = 0;
        }
    }
    for (Vreg v : t.touched) {
        if (t.consumers[v].count > 2)
            res.fanoutMoves += t.consumers[v].count - 2;
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
checkBlockLegal(const Function &fn, const BasicBlock &bb,
                const BitVector &live_out, const TargetModel &target,
                size_t headroom, BlockAnalysisScratch &scratch)
{
    return checkBlockLegal(analyzeBlock(fn, bb, live_out, scratch), target,
                           headroom);
}

} // namespace chf
