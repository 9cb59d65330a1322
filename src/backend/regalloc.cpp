#include "backend/regalloc.h"

#include <algorithm>

#include "analysis/liveness.h"
#include "transform/reverse_if_convert.h"

namespace chf {

size_t
insertSpillCode(Function &fn, const std::vector<Vreg> &spilled,
                int64_t slot_base, const Liveness &liveness)
{
    const uint32_t nv = fn.numVregs();
    std::vector<uint8_t> is_arg(spilled.size(), 0);
    for (size_t i = 0; i < spilled.size(); ++i) {
        is_arg[i] = std::find(fn.argRegs.begin(), fn.argRegs.end(),
                              spilled[i]) != fn.argRegs.end();
    }

    size_t inserted = 0;
    std::vector<uint8_t> reload(spilled.size()), store(spilled.size());
    BitVector defs(nv), pred_defs(nv), uses, killed;
    for (BlockId id : fn.blockIds()) {
        BasicBlock &bb = *fn.block(id);
        blockUsesInto(bb, nv, uses, killed);
        defs.reset();
        pred_defs.reset();
        for (const auto &inst : bb.insts) {
            if (!inst.hasDest())
                continue;
            defs.set(inst.dest);
            if (inst.pred.valid())
                pred_defs.set(inst.dest);
        }

        // Per value: reload at block entry if the block reads the value
        // before (re)defining it, or if a predicated def may not fire
        // while the exit store runs unconditionally (the flow-through
        // value must be in the register); store at block exit when the
        // (possibly new) value flows out. Arguments arrive in
        // registers, not in their (zero-filled) spill slots, so the
        // entry block first stores each spilled argument.
        const bool entry = id == fn.entry();
        size_t added = 0;
        for (size_t i = 0; i < spilled.size(); ++i) {
            Vreg reg = spilled[i];
            store[i] = defs.test(reg) && liveness.liveOutContains(id, reg);
            reload[i] = liveness.liveInContains(id, reg) &&
                        (uses.test(reg) || (store[i] && pred_defs.test(reg)));
            added += reload[i] + store[i] + (entry && is_arg[i]);
        }
        if (added == 0)
            continue;

        // Argument stores, then reloads, both last-spilled-first; the
        // block; then stores in spill order.
        auto slot = [&](size_t i) {
            return Operand::makeImm(slot_base + static_cast<int64_t>(i));
        };
        auto store_of = [&](size_t i) {
            return Instruction::store(slot(i), Operand::makeImm(0),
                                      Operand::makeReg(spilled[i]));
        };
        std::vector<Instruction> out;
        out.reserve(bb.insts.size() + added);
        for (size_t i = spilled.size(); entry && i-- > 0;) {
            if (is_arg[i])
                out.push_back(store_of(i));
        }
        for (size_t i = spilled.size(); i-- > 0;) {
            if (reload[i]) {
                out.push_back(Instruction::load(spilled[i], slot(i),
                                                Operand::makeImm(0)));
            }
        }
        out.insert(out.end(), bb.insts.begin(), bb.insts.end());
        for (size_t i = 0; i < spilled.size(); ++i) {
            if (store[i])
                out.push_back(store_of(i));
        }
        bb.insts = std::move(out);
        inserted += added;
    }
    return inserted;
}

RegAllocResult
allocateRegisters(Program &program, const RegAllocOptions &options)
{
    Function &fn = program.fn;
    RegAllocResult result;

    Liveness liveness(fn);
    uint32_t nv = fn.numVregs();

    // Cross-block values: live into any block, plus the arguments.
    BitVector cross(nv);
    for (BlockId id : fn.blockIds())
        liveness.forEachLiveIn(id, [&](Vreg v) { cross.set(v); });
    for (Vreg arg : fn.argRegs) {
        if (arg < nv)
            cross.set(arg);
    }
    result.crossBlockValues = cross.count();

    // Weight each value by the frequency of the blocks that touch it.
    std::vector<double> weight(nv, 0.0);
    for (BlockId id : fn.blockIds()) {
        const BasicBlock *bb = fn.block(id);
        double f = std::max(bb->frequency(), 1.0);
        for (const auto &inst : bb->insts) {
            inst.forEachUse([&](Vreg v) { weight[v] += f; });
            if (inst.hasDest())
                weight[inst.dest] += f;
        }
    }

    std::vector<Vreg> values = cross.bits();
    std::sort(values.begin(), values.end(), [&](Vreg a, Vreg b) {
        if (weight[a] != weight[b])
            return weight[a] > weight[b];
        return a < b;
    });

    // The hottest numPhysRegs values get registers; the rest spill.
    std::vector<Vreg> spilled(
        values.begin() + std::min(values.size(), options.numPhysRegs),
        values.end());
    result.spilledValues = spilled.size();

    if (!spilled.empty()) {
        if (!program.memory.hasRegion("spill"))
            program.memory.allocate("spill",
                                    static_cast<int64_t>(spilled.size()));
        result.spillInstsInserted = insertSpillCode(
            fn, spilled, program.memory.region("spill").base, liveness);
        // Spill code may have blown the structural limits: reverse
        // if-convert (split) the offenders.
        result.blocksSplit =
            splitOversizedBlocks(fn, options.target);
    }

    return result;
}

} // namespace chf
