/**
 * @file
 * Architectural state shared by the functional and timing simulators:
 * the value array, the memory image, the binding of a run's arguments,
 * and the decoder that turns an instruction into a micro-op whose
 * operands index the value array. Internal to src/sim; both simulators
 * execute the same micro-ops through this one definition, so they
 * cannot drift apart on what a register or operand holds.
 */

#ifndef CHF_SIM_MACHINE_H
#define CHF_SIM_MACHINE_H

#include <array>
#include <cstdint>
#include <vector>

#include "ir/program.h"
#include "support/fatal.h"

namespace chf::detail {

/** A value-array index. */
using Slot = uint32_t;

/**
 * One decoded instruction. Every operand is a slot of the Machine's
 * value array, so executing it reads no Operand or Predicate: an
 * absent source reads the zero slot, an unpredicated instruction
 * tests the true slot, and an instruction without a destination names
 * the discard slot.
 */
struct MicroOp
{
    Opcode op;
    /** Fires when (values[pred] != 0) equals this. */
    bool onTrue;
    Slot dest;
    std::array<Slot, 3> src;
    Slot pred;
    /** Branch target (Br only). */
    BlockId target;
};

/**
 * True for the opcodes Machine::evaluate runs. The rest -- Load, Store,
 * Br and Ret, the last four opcodes -- each simulator runs itself.
 */
constexpr bool
isPure(Opcode op)
{
    return op < Opcode::Load;
}

static_assert([] {
    for (int i = 0; i < kNumOpcodes; ++i) {
        if (isPure(Opcode(i)) != opcodeIsPure(Opcode(i)))
            return false;
    }
    return true;
}(), "the pure opcodes are the ones before Load");

/**
 * Where a block's records sit in a simulator's record array,
 * [begin, end); a block gets its span the first time it executes.
 */
struct BlockSpan
{
    static constexpr uint32_t kUndecoded = ~uint32_t(0);

    uint32_t begin = kUndecoded;
    uint32_t end = 0;

    bool decoded() const { return begin != kUndecoded; }
    uint32_t size() const { return end - begin; }
};

/** Interpreter state for one run. */
struct Machine
{
    /**
     * The value array: the registers at [0, numVregs), then the zero,
     * true and discard slots, then one slot per immediate operand of
     * the blocks decoded so far.
     */
    std::vector<int64_t> values;
    MemoryImage memory;

    /**
     * Zeroed registers, a copy of @p program's memory image, and the
     * function's argument registers bound to @p args (to
     * program.defaultArgs when @p args is empty). The value array is
     * sized once, with a slot for every immediate operand of the
     * function, so decoding never moves it.
     */
    Machine(const Program &program, const std::vector<int64_t> &args)
        : memory(program.memory), zeroSlot(program.fn.numVregs()),
          trueSlot(zeroSlot + 1), discardSlot(zeroSlot + 2),
          nextConstant(zeroSlot + 3)
    {
        const Function &fn = program.fn;
        size_t constants = 0;
        for (BlockId id = 0; id < fn.blockTableSize(); ++id) {
            const BasicBlock *bb = fn.block(id);
            if (!bb)
                continue;
            for (const Instruction &inst : bb->insts) {
                for (int s = 0; s < inst.numSrcs(); ++s)
                    constants += inst.srcs[s].isImm();
            }
        }
        values.assign(nextConstant + constants, 0);
        values[trueSlot] = 1;

        const std::vector<int64_t> &actual_args =
            args.empty() ? program.defaultArgs : args;
        CHF_ASSERT(actual_args.size() >= fn.argRegs.size(),
                   "too few arguments for program");
        for (size_t i = 0; i < fn.argRegs.size(); ++i)
            values[fn.argRegs[i]] = actual_args[i];
    }

    /**
     * The micro-op of @p inst. Its immediates take the next constant
     * slots, so decode each instruction of a run once.
     */
    MicroOp
    decode(const Instruction &inst)
    {
        MicroOp u{inst.op,
                  !inst.pred.valid() || inst.pred.onTrue,
                  inst.hasDest() ? inst.dest : discardSlot,
                  {zeroSlot, zeroSlot, zeroSlot},
                  inst.pred.valid() ? inst.pred.reg : trueSlot,
                  inst.target};
        for (int s = 0; s < inst.numSrcs(); ++s) {
            const Operand &op = inst.srcs[s];
            if (op.isReg()) {
                u.src[s] = op.reg;
            } else if (op.isImm()) {
                CHF_ASSERT(nextConstant < values.size(),
                           "an instruction was decoded twice in one run");
                values[nextConstant] = op.imm;
                u.src[s] = nextConstant++;
            }
        }
        return u;
    }

    /** True when @p u's predicate holds. */
    bool
    fires(const MicroOp &u) const
    {
        return (values[u.pred] != 0) == u.onTrue;
    }

    /** The word address a Load or Store accesses (wrapping add). */
    int64_t
    address(const MicroOp &u) const
    {
        return static_cast<int64_t>(
            static_cast<uint64_t>(values[u.src[0]]) +
            static_cast<uint64_t>(values[u.src[1]]));
    }

    /**
     * Execute a pure opcode: write its destination. Forced inline, with
     * evalOpcode, so that the simulators' loops dispatch each micro-op
     * through one jump table instead of a call.
     */
    [[gnu::always_inline]] void
    evaluate(const MicroOp &u)
    {
        values[u.dest] =
            evalOpcode(u.op, values[u.src[0]], values[u.src[1]]);
    }

  private:
    const Slot zeroSlot;
    const Slot trueSlot;
    const Slot discardSlot;
    Slot nextConstant;
};

} // namespace chf::detail

#endif // CHF_SIM_MACHINE_H
