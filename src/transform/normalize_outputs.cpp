#include "transform/normalize_outputs.h"

#include <map>

#include "analysis/liveness.h"

namespace chf {

namespace {

/**
 * Shared writer-analysis of normalizeOutputs and predictNullWrites:
 * invoke @p emit(reg, last_writer_pred) once per live-out register
 * that needs a compensating null write. Keeping one walk guarantees
 * the size estimator's prediction cannot drift from the pass.
 */
template <typename Fn>
size_t
forEachNullWrite(const BasicBlock &bb, const BitVector &live_out, Fn emit)
{
    // Collect, per live-out register, the predicates of its writers.
    // Registers with at least one unpredicated writer always produce a
    // write and need no compensation.
    std::map<Vreg, std::vector<Predicate>> partial;
    std::map<Vreg, bool> has_unpred_writer;
    for (const auto &inst : bb.insts) {
        if (!inst.hasDest() || inst.dest >= live_out.size() ||
            !live_out.test(inst.dest)) {
            continue;
        }
        if (!inst.pred.valid())
            has_unpred_writer[inst.dest] = true;
        else
            partial[inst.dest].push_back(inst.pred);
    }

    size_t compensated = 0;
    for (const auto &[reg, preds] : partial) {
        if (has_unpred_writer.count(reg))
            continue; // a write always fires

        // Complementary pair covers every path: no compensation needed.
        if (preds.size() == 2 && preds[0].reg == preds[1].reg &&
            preds[0].onTrue != preds[1].onTrue) {
            continue;
        }

        emit(reg, preds.back());
        ++compensated;
    }
    return compensated;
}

} // namespace

size_t
normalizeOutputs(Function &fn, BasicBlock &bb, const BitVector &live_out)
{
    (void)fn;
    // One compensating self-move guarded on the complement of the
    // last writer's predicate. When no writer fired, the last
    // writer's guard is false, so the null write fires. When an
    // earlier writer fired but the last did not, both the real
    // write and the (identity) null write occur -- semantically a
    // no-op, and the SSA write-merge of the real compiler [24]
    // costs the same single instruction slot.
    return forEachNullWrite(
        bb, live_out, [&](Vreg reg, const Predicate &last) {
            Instruction null_write = Instruction::unary(
                Opcode::Mov, reg, Operand::makeReg(reg));
            null_write.pred = Predicate::onReg(last.reg, !last.onTrue);
            bb.append(null_write);
        });
}

size_t
predictNullWrites(const BasicBlock &bb, const BitVector &live_out)
{
    return forEachNullWrite(bb, live_out,
                            [](Vreg, const Predicate &) {});
}

size_t
normalizeOutputsFunction(Function &fn)
{
    Liveness liveness(fn);
    BitVector live_out;
    size_t total = 0;
    for (BlockId id : fn.blockIds()) {
        BasicBlock *bb = fn.block(id);
        liveness.liveOutOf(*bb, live_out);
        total += normalizeOutputs(fn, *bb, live_out);
    }
    return total;
}

} // namespace chf
