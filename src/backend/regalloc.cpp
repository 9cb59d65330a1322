#include "backend/regalloc.h"

#include <algorithm>

#include "analysis/liveness.h"
#include "support/stamped_table.h"
#include "transform/reverse_if_convert.h"

namespace chf {

size_t
insertSpillCode(Function &fn, const std::vector<Vreg> &spilled,
                int64_t slot_base, const Liveness &liveness)
{
    // Each spilled register's index in spilled, and the spilled
    // arguments' indices, last-spilled-first.
    StampedTable<uint32_t> index;
    std::vector<uint32_t> args;
    for (size_t i = 0; i < spilled.size(); ++i)
        index.touch(spilled[i]) = static_cast<uint32_t>(i);
    for (size_t i = spilled.size(); i-- > 0;) {
        if (std::find(fn.argRegs.begin(), fn.argRegs.end(), spilled[i]) !=
            fn.argRegs.end())
            args.push_back(static_cast<uint32_t>(i));
    }

    // What one block does with each spilled value it mentions, by
    // index; only a mentioned value can need a reload or a store.
    struct Mention
    {
        bool exposed = false; ///< read before any unpredicated def
        bool killed = false;  ///< defined unpredicated so far
        bool def = false;
        bool predDef = false;
        bool reload = false;
        bool store = false;
    };
    StampedTable<Mention> seen;
    std::vector<uint32_t> mentioned;

    size_t inserted = 0;
    for (BlockId id : fn.blockIds()) {
        BasicBlock &bb = *fn.block(id);
        seen.clear();
        mentioned.clear();
        auto mention = [&](Vreg v) -> Mention * {
            const uint32_t *i = index.find(v);
            if (!i)
                return nullptr;
            if (!seen.contains(*i))
                mentioned.push_back(*i);
            return &seen.touch(*i);
        };
        for (const auto &inst : bb.insts) {
            inst.forEachUse([&](Vreg v) {
                if (Mention *m = mention(v))
                    m->exposed |= !m->killed;
            });
            if (!inst.hasDest())
                continue;
            if (Mention *m = mention(inst.dest)) {
                m->def = true;
                if (inst.pred.valid())
                    m->predDef = true;
                else
                    m->killed = true;
            }
        }

        // Per value: reload at block entry if the block reads the value
        // before (re)defining it, or if a predicated def may not fire
        // while the exit store runs unconditionally (the flow-through
        // value must be in the register); store at block exit when the
        // (possibly new) value flows out. Arguments arrive in
        // registers, not in their (zero-filled) spill slots, so the
        // entry block first stores each spilled argument.
        const bool entry = id == fn.entry();
        size_t added = entry ? args.size() : 0;
        for (uint32_t i : mentioned) {
            Mention &m = *seen.find(i);
            m.store = m.def && liveness.liveOutContains(id, spilled[i]);
            m.reload = liveness.liveInContains(id, spilled[i]) &&
                       (m.exposed || (m.store && m.predDef));
            added += m.reload + m.store;
        }
        if (added == 0)
            continue;

        // Argument stores, then reloads, both last-spilled-first; the
        // block; then stores in spill order.
        std::sort(mentioned.begin(), mentioned.end());
        auto slot = [&](size_t i) {
            return Operand::makeImm(slot_base + static_cast<int64_t>(i));
        };
        auto store_of = [&](size_t i) {
            return Instruction::store(slot(i), Operand::makeImm(0),
                                      Operand::makeReg(spilled[i]));
        };
        std::vector<Instruction> out;
        out.reserve(bb.insts.size() + added);
        for (size_t k = 0; entry && k < args.size(); ++k)
            out.push_back(store_of(args[k]));
        for (size_t k = mentioned.size(); k-- > 0;) {
            const uint32_t i = mentioned[k];
            if (seen.find(i)->reload) {
                out.push_back(Instruction::load(spilled[i], slot(i),
                                                Operand::makeImm(0)));
            }
        }
        out.insert(out.end(), bb.insts.begin(), bb.insts.end());
        for (uint32_t i : mentioned) {
            if (seen.find(i)->store)
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
