/**
 * @file
 * Instruction opcodes and their static properties.
 */

#ifndef CHF_IR_OPCODE_H
#define CHF_IR_OPCODE_H

#include <cstdint>

namespace chf {

/**
 * RISC-like opcode set. Tests (Teq..Tge) produce 0/1 and typically feed
 * predicates or branches. Br/Ret are ordinary (optionally predicated)
 * instructions: an EDGE block contains one or more branches of which
 * exactly one fires per execution.
 */
enum class Opcode : uint8_t
{
    // Data movement
    Mov,     ///< dest = src0 (reg or imm)

    // Integer arithmetic
    Add,     ///< dest = src0 + src1
    Sub,     ///< dest = src0 - src1
    Mul,     ///< dest = src0 * src1
    Div,     ///< dest = src0 / src1 (src1 == 0 yields 0)
    Mod,     ///< dest = src0 % src1 (src1 == 0 yields 0)
    Neg,     ///< dest = -src0

    // Bitwise
    And,     ///< dest = src0 & src1
    Or,      ///< dest = src0 | src1
    Xor,     ///< dest = src0 ^ src1
    Not,     ///< dest = ~src0
    Shl,     ///< dest = src0 << (src1 & 63)
    Shr,     ///< dest = src0 >> (src1 & 63), arithmetic

    // Predicate algebra: produce 0 or 1 from arbitrary values.
    // TRIPS composes predicates in the dataflow graph; these model
    // that composition as single instructions.
    Band,    ///< dest = (src0 != 0) && (src1 != 0)
    Bandc,   ///< dest = (src0 != 0) && (src1 == 0)

    // Tests: produce 0 or 1
    Teq,     ///< dest = src0 == src1
    Tne,     ///< dest = src0 != src1
    Tlt,     ///< dest = src0 <  src1
    Tle,     ///< dest = src0 <= src1
    Tgt,     ///< dest = src0 >  src1
    Tge,     ///< dest = src0 >= src1

    // Memory, word addressed
    Load,    ///< dest = mem[src0 + src1]
    Store,   ///< mem[src0 + src1] = src2

    // Control
    Br,      ///< branch to target (field), possibly predicated
    Ret,     ///< return src0 (optional), possibly predicated
};

/** Total number of opcodes. */
constexpr int kNumOpcodes = static_cast<int>(Opcode::Ret) + 1;

/** Mnemonic for printing. */
const char *opcodeName(Opcode op);

/** Number of source operands the opcode consumes. */
int opcodeNumSrcs(Opcode op);

/** True if the opcode writes a destination register. */
bool opcodeHasDest(Opcode op);

/** True for Br and Ret. */
bool opcodeIsBranch(Opcode op);

/** True for the six test opcodes. */
bool opcodeIsTest(Opcode op);

/** True for Load/Store. */
bool opcodeIsMemory(Opcode op);

/**
 * True if the opcode is a pure function of its operands (no memory or
 * control side effects), so it is eligible for value numbering and dead
 * code elimination.
 */
bool opcodeIsPure(Opcode op);

/** Execution latency in cycles used by the timing model. */
int opcodeLatency(Opcode op);

/** True if the binary opcode is commutative. */
bool opcodeIsCommutative(Opcode op);

/**
 * Evaluate a pure opcode on constant operands (unary ops ignore @p b).
 * Division and modulus by zero yield zero by definition in this IR.
 */
int64_t evalOpcode(Opcode op, int64_t a, int64_t b);

} // namespace chf

#endif // CHF_IR_OPCODE_H
