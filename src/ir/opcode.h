/**
 * @file
 * Instruction opcodes and their static properties.
 */

#ifndef CHF_IR_OPCODE_H
#define CHF_IR_OPCODE_H

#include <cstddef>
#include <cstdint>
#include <iterator>

#include "support/fatal.h"

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

/** The opcode classes formation and the simulators test for. */
enum class OpcodeClass : uint8_t { Plain, Test, Memory, Branch };

/** Static properties of one opcode: one row of kOpcodeTable. */
struct OpcodeInfo
{
    const char *name;    ///< mnemonic for printing
    uint8_t numSrcs;     ///< source operands consumed
    bool hasDest;        ///< writes a destination register
    OpcodeClass cls;
    uint8_t latency;     ///< execution cycles in the timing model
    bool commutative;    ///< a binary opcode whose operands commute
};

/** Every opcode's properties, one row per opcode in enum order. */
inline constexpr OpcodeInfo kOpcodeTable[] = {
    // name   srcs dest   class                lat comm
    {"mov",   1,   true,  OpcodeClass::Plain,  1,  false},
    {"add",   2,   true,  OpcodeClass::Plain,  1,  true},
    {"sub",   2,   true,  OpcodeClass::Plain,  1,  false},
    {"mul",   2,   true,  OpcodeClass::Plain,  3,  true},
    {"div",   2,   true,  OpcodeClass::Plain,  24, false},
    {"mod",   2,   true,  OpcodeClass::Plain,  24, false},
    {"neg",   1,   true,  OpcodeClass::Plain,  1,  false},
    {"and",   2,   true,  OpcodeClass::Plain,  1,  true},
    {"or",    2,   true,  OpcodeClass::Plain,  1,  true},
    {"xor",   2,   true,  OpcodeClass::Plain,  1,  true},
    {"not",   1,   true,  OpcodeClass::Plain,  1,  false},
    {"shl",   2,   true,  OpcodeClass::Plain,  1,  false},
    {"shr",   2,   true,  OpcodeClass::Plain,  1,  false},
    {"band",  2,   true,  OpcodeClass::Plain,  1,  true},
    {"bandc", 2,   true,  OpcodeClass::Plain,  1,  false},
    {"teq",   2,   true,  OpcodeClass::Test,   1,  true},
    {"tne",   2,   true,  OpcodeClass::Test,   1,  true},
    {"tlt",   2,   true,  OpcodeClass::Test,   1,  false},
    {"tle",   2,   true,  OpcodeClass::Test,   1,  false},
    {"tgt",   2,   true,  OpcodeClass::Test,   1,  false},
    {"tge",   2,   true,  OpcodeClass::Test,   1,  false},
    {"load",  2,   true,  OpcodeClass::Memory, 3,  false},
    {"store", 3,   false, OpcodeClass::Memory, 1,  false},
    {"br",    0,   false, OpcodeClass::Branch, 1,  false},
    {"ret",   1,   false, OpcodeClass::Branch, 1,  false}, // value optional
};
static_assert(std::size(kOpcodeTable) == static_cast<size_t>(kNumOpcodes),
              "one kOpcodeTable row per opcode");

/** The row of @p op. */
constexpr const OpcodeInfo &
opcodeInfo(Opcode op)
{
    return kOpcodeTable[static_cast<int>(op)];
}

/** Mnemonic for printing. */
constexpr const char *
opcodeName(Opcode op)
{
    return opcodeInfo(op).name;
}

/** Number of source operands the opcode consumes. */
constexpr int
opcodeNumSrcs(Opcode op)
{
    return opcodeInfo(op).numSrcs;
}

/** True if the opcode writes a destination register. */
constexpr bool
opcodeHasDest(Opcode op)
{
    return opcodeInfo(op).hasDest;
}

/** True for Br and Ret. */
constexpr bool
opcodeIsBranch(Opcode op)
{
    return opcodeInfo(op).cls == OpcodeClass::Branch;
}

/** True for the six test opcodes. */
constexpr bool
opcodeIsTest(Opcode op)
{
    return opcodeInfo(op).cls == OpcodeClass::Test;
}

/** True for Load/Store. */
constexpr bool
opcodeIsMemory(Opcode op)
{
    return opcodeInfo(op).cls == OpcodeClass::Memory;
}

/**
 * True if the opcode is a pure function of its operands (no memory or
 * control side effects), so it is eligible for value numbering and dead
 * code elimination.
 */
constexpr bool
opcodeIsPure(Opcode op)
{
    return opcodeHasDest(op) && !opcodeIsMemory(op);
}

/** Execution latency in cycles used by the timing model. */
constexpr int
opcodeLatency(Opcode op)
{
    return opcodeInfo(op).latency;
}

/** True if the binary opcode is commutative. */
constexpr bool
opcodeIsCommutative(Opcode op)
{
    return opcodeInfo(op).commutative;
}

/**
 * Evaluate a pure opcode on constant operands (unary ops ignore @p b).
 * The one definition of the IR's arithmetic: constant folding and both
 * simulators call it. Arithmetic wraps in two's complement: Add, Sub,
 * Mul and Neg are taken modulo 2^64, x / -1 is the wrapping negation
 * of x (so INT64_MIN / -1 is INT64_MIN) and x % -1 is 0. Division and
 * modulus by zero yield zero by definition in this IR. Forced inline:
 * GCC keeps it out of line otherwise, and the simulators' loops would
 * pay a call per executed instruction.
 */
[[gnu::always_inline]] inline int64_t
evalOpcode(Opcode op, int64_t a, int64_t b)
{
    const uint64_t ua = static_cast<uint64_t>(a);
    const uint64_t ub = static_cast<uint64_t>(b);
    switch (op) {
      case Opcode::Mov: return a;
      case Opcode::Add: return static_cast<int64_t>(ua + ub);
      case Opcode::Sub: return static_cast<int64_t>(ua - ub);
      case Opcode::Mul: return static_cast<int64_t>(ua * ub);
      case Opcode::Div:
        if (b == 0)
            return 0;
        return b == -1 ? static_cast<int64_t>(0 - ua) : a / b;
      case Opcode::Mod: return b == 0 || b == -1 ? 0 : a % b;
      case Opcode::Neg: return static_cast<int64_t>(0 - ua);
      case Opcode::And: return a & b;
      case Opcode::Or:  return a | b;
      case Opcode::Xor: return a ^ b;
      case Opcode::Not: return ~a;
      case Opcode::Band: return (a != 0) && (b != 0);
      case Opcode::Bandc: return (a != 0) && (b == 0);
      case Opcode::Shl: return static_cast<int64_t>(ua << (b & 63));
      case Opcode::Shr: return a >> (b & 63);
      case Opcode::Teq: return a == b;
      case Opcode::Tne: return a != b;
      case Opcode::Tlt: return a < b;
      case Opcode::Tle: return a <= b;
      case Opcode::Tgt: return a > b;
      case Opcode::Tge: return a >= b;
      default:
        panic("evalOpcode on impure opcode");
    }
}

} // namespace chf

#endif // CHF_IR_OPCODE_H
