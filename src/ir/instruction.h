/**
 * @file
 * A single predicated IR instruction.
 */

#ifndef CHF_IR_INSTRUCTION_H
#define CHF_IR_INSTRUCTION_H

#include <array>

#include "ir/opcode.h"
#include "ir/value.h"

namespace chf {

/**
 * One instruction: opcode, optional destination, up to three source
 * operands, an optional predicate, and (for branches) a target block and
 * a profile-derived expected execution frequency.
 *
 * Within a block, instructions observe program-order semantics: an
 * instruction reads the most recent prior write of each source register.
 * Because every value is defined before use in program order, this is
 * equivalent to EDGE dataflow execution, where only the instructions
 * whose predicates evaluate true fire.
 */
struct Instruction
{
    Opcode op = Opcode::Mov;
    Vreg dest = kNoVreg;
    std::array<Operand, 3> srcs = {Operand::makeNone(), Operand::makeNone(),
                                   Operand::makeNone()};
    Predicate pred;

    /** Branch target (Br only). */
    BlockId target = kNoBlock;

    /**
     * For branches: expected number of times this branch fires per
     * profiled run. Maintained through duplication so policies can rank
     * merge candidates without re-profiling.
     */
    double freq = 0.0;

    bool isBranch() const { return opcodeIsBranch(op); }
    bool hasDest() const { return opcodeHasDest(op) && dest != kNoVreg; }

    /** Number of meaningful source slots for this opcode. */
    int numSrcs() const { return opcodeNumSrcs(op); }

    /**
     * Invoke @p fn on every register this instruction reads, including
     * the predicate register.
     */
    template <typename Fn>
    void
    forEachUse(Fn fn) const
    {
        const int n = numSrcs();
        for (int i = 0; i < n; ++i) {
            if (srcs[i].isReg())
                fn(srcs[i].reg);
        }
        if (pred.valid())
            fn(pred.reg);
    }

    /** Structural equality ignoring branch frequency. */
    bool
    sameAs(const Instruction &other) const
    {
        return op == other.op && dest == other.dest &&
               srcs == other.srcs && pred == other.pred &&
               target == other.target;
    }

    // --- Constructors for common shapes ---

    static Instruction
    unary(Opcode op, Vreg dest, Operand src)
    {
        Instruction inst;
        inst.op = op;
        inst.dest = dest;
        inst.srcs[0] = src;
        return inst;
    }

    static Instruction
    binary(Opcode op, Vreg dest, Operand a, Operand b)
    {
        Instruction inst;
        inst.op = op;
        inst.dest = dest;
        inst.srcs[0] = a;
        inst.srcs[1] = b;
        return inst;
    }

    static Instruction
    load(Vreg dest, Operand base, Operand offset)
    {
        Instruction inst;
        inst.op = Opcode::Load;
        inst.dest = dest;
        inst.srcs[0] = base;
        inst.srcs[1] = offset;
        return inst;
    }

    static Instruction
    store(Operand base, Operand offset, Operand value)
    {
        Instruction inst;
        inst.op = Opcode::Store;
        inst.srcs[0] = base;
        inst.srcs[1] = offset;
        inst.srcs[2] = value;
        return inst;
    }

    static Instruction
    br(BlockId target, Predicate pred = Predicate::always(),
       double freq = 0.0)
    {
        Instruction inst;
        inst.op = Opcode::Br;
        inst.target = target;
        inst.pred = pred;
        inst.freq = freq;
        return inst;
    }

    static Instruction
    ret(Operand value = Operand::makeNone(),
        Predicate pred = Predicate::always(), double freq = 0.0)
    {
        Instruction inst;
        inst.op = Opcode::Ret;
        inst.srcs[0] = value;
        inst.pred = pred;
        inst.freq = freq;
        return inst;
    }
};

} // namespace chf

#endif // CHF_IR_INSTRUCTION_H
