#include "transform/normalize_outputs.h"

#include <algorithm>

#include "analysis/liveness.h"

namespace chf {

namespace {

/**
 * Shared writer-analysis of normalizeOutputs and predictNullWrites:
 * invoke @p emit(reg, last_writer_pred) once per live-out register
 * that needs a compensating null write, in ascending register order.
 * Keeping one walk guarantees the size estimator's prediction cannot
 * drift from the pass.
 */
template <typename Fn>
size_t
forEachNullWrite(const BasicBlock &bb, const BitVector &live_out,
                 NullWriteScratch &t, Fn emit)
{
    t.slots.clear();
    t.writers.clear();

    // Collect, per live-out register, the predicates of its writers.
    // Registers with at least one unpredicated writer always produce a
    // write and need no compensation.
    for (const auto &inst : bb.insts) {
        if (!inst.hasDest() || inst.dest >= live_out.size() ||
            !live_out.test(inst.dest)) {
            continue;
        }
        const bool first = !t.slots.contains(inst.dest);
        uint32_t &index = t.slots.touch(inst.dest);
        if (first) {
            index = static_cast<uint32_t>(t.writers.size());
            t.writers.emplace_back();
            t.writers.back().reg = inst.dest;
        }
        NullWriteScratch::Writers &w = t.writers[index];
        if (!inst.pred.valid()) {
            w.unpredicated = true;
            continue;
        }
        if (w.predicated == 0)
            w.first = inst.pred;
        else if (w.predicated == 1)
            w.second = inst.pred;
        w.last = inst.pred;
        ++w.predicated;
    }

    std::sort(t.writers.begin(), t.writers.end(),
              [](const NullWriteScratch::Writers &a,
                 const NullWriteScratch::Writers &b) {
                  return a.reg < b.reg;
              });
    size_t compensated = 0;
    for (const NullWriteScratch::Writers &w : t.writers) {
        if (w.unpredicated)
            continue; // a write always fires

        // Complementary pair covers every path: no compensation needed.
        if (w.predicated == 2 && w.first.reg == w.second.reg &&
            w.first.onTrue != w.second.onTrue) {
            continue;
        }

        emit(w.reg, w.last);
        ++compensated;
    }
    return compensated;
}

} // namespace

size_t
normalizeOutputs(BasicBlock &bb, const BitVector &live_out,
                 NullWriteScratch &scratch)
{
    // One compensating self-move guarded on the complement of the
    // last writer's predicate. When no writer fired, the last
    // writer's guard is false, so the null write fires. When an
    // earlier writer fired but the last did not, both the real
    // write and the (identity) null write occur -- semantically a
    // no-op, and the SSA write-merge of the real compiler [24]
    // costs the same single instruction slot.
    return forEachNullWrite(
        bb, live_out, scratch, [&](Vreg reg, const Predicate &last) {
            Instruction null_write = Instruction::unary(
                Opcode::Mov, reg, Operand::makeReg(reg));
            null_write.pred = Predicate::onReg(last.reg, !last.onTrue);
            bb.append(null_write);
        });
}

size_t
predictNullWrites(const BasicBlock &bb, const BitVector &live_out,
                  NullWriteScratch &scratch)
{
    return forEachNullWrite(bb, live_out, scratch,
                            [](Vreg, const Predicate &) {});
}

size_t
normalizeOutputsFunction(Function &fn)
{
    Liveness liveness(fn);
    BitVector live_out;
    NullWriteScratch scratch;
    size_t total = 0;
    for (BlockId id : fn.blockIds()) {
        BasicBlock *bb = fn.block(id);
        liveness.liveOutOf(*bb, live_out);
        total += normalizeOutputs(*bb, live_out, scratch);
    }
    return total;
}

} // namespace chf
