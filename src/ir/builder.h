/**
 * @file
 * Convenience builder for constructing IR by hand (tests, examples,
 * front-end lowering).
 */

#ifndef CHF_IR_BUILDER_H
#define CHF_IR_BUILDER_H

#include "ir/function.h"

namespace chf {

/**
 * Appends instructions to a current block of a function. All emit
 * helpers return the destination register where one exists.
 */
class IRBuilder
{
  public:
    explicit IRBuilder(Function &fn) : func(fn) {}

    Function &function() { return func; }

    /** Create a block and return its id (does not change insert point). */
    BlockId
    makeBlock(const std::string &name = "")
    {
        return func.newBlock(name)->id();
    }

    /** Set the block new instructions are appended to. */
    void setBlock(BlockId id) { current = id; }

    /** Append an arbitrary instruction. */
    void
    emit(const Instruction &inst)
    {
        blockRef()->append(inst);
    }

    // --- Operand shorthands ---
    static Operand r(Vreg v) { return Operand::makeReg(v); }
    static Operand imm(int64_t v) { return Operand::makeImm(v); }

    /** Materialize a constant into a fresh register. */
    Vreg
    constant(int64_t v)
    {
        Vreg d = func.newVreg();
        emit(Instruction::unary(Opcode::Mov, d, imm(v)));
        return d;
    }

    Vreg
    unary(Opcode op, Operand a)
    {
        Vreg d = func.newVreg();
        emit(Instruction::unary(op, d, a));
        return d;
    }

    Vreg
    binary(Opcode op, Operand a, Operand b)
    {
        Vreg d = func.newVreg();
        emit(Instruction::binary(op, d, a, b));
        return d;
    }

    Vreg add(Operand a, Operand b) { return binary(Opcode::Add, a, b); }
    Vreg sub(Operand a, Operand b) { return binary(Opcode::Sub, a, b); }
    Vreg mul(Operand a, Operand b) { return binary(Opcode::Mul, a, b); }

    Vreg
    load(Operand base, Operand offset)
    {
        Vreg d = func.newVreg();
        emit(Instruction::load(d, base, offset));
        return d;
    }

    void
    store(Operand base, Operand offset, Operand value)
    {
        emit(Instruction::store(base, offset, value));
    }

    /** Copy into an existing register (e.g. a loop-carried variable). */
    void
    movTo(Vreg dest, Operand src)
    {
        emit(Instruction::unary(Opcode::Mov, dest, src));
    }

    /** Unconditional branch. */
    void
    br(BlockId target, double freq = 0.0)
    {
        emit(Instruction::br(target, Predicate::always(), freq));
    }

    /**
     * Conditional branch: emits two branches predicated on @p cond, to
     * @p if_true when nonzero and @p if_false when zero.
     */
    void
    brCond(Vreg cond, BlockId if_true, BlockId if_false,
           double freq_true = 0.0, double freq_false = 0.0)
    {
        emit(Instruction::br(if_true, Predicate::onReg(cond, true),
                             freq_true));
        emit(Instruction::br(if_false, Predicate::onReg(cond, false),
                             freq_false));
    }

    void
    ret(Operand value = Operand::makeNone(), double freq = 0.0)
    {
        emit(Instruction::ret(value, Predicate::always(), freq));
    }

  private:
    BasicBlock *
    blockRef()
    {
        BasicBlock *bb = func.block(current);
        return bb;
    }

    Function &func;
    BlockId current = kNoBlock;
};

} // namespace chf

#endif // CHF_IR_BUILDER_H
