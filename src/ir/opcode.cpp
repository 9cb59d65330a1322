#include "ir/opcode.h"

#include "support/fatal.h"

namespace chf {

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::Mov: return "mov";
      case Opcode::Add: return "add";
      case Opcode::Sub: return "sub";
      case Opcode::Mul: return "mul";
      case Opcode::Div: return "div";
      case Opcode::Mod: return "mod";
      case Opcode::Neg: return "neg";
      case Opcode::And: return "and";
      case Opcode::Or: return "or";
      case Opcode::Xor: return "xor";
      case Opcode::Not: return "not";
      case Opcode::Band: return "band";
      case Opcode::Bandc: return "bandc";
      case Opcode::Shl: return "shl";
      case Opcode::Shr: return "shr";
      case Opcode::Teq: return "teq";
      case Opcode::Tne: return "tne";
      case Opcode::Tlt: return "tlt";
      case Opcode::Tle: return "tle";
      case Opcode::Tgt: return "tgt";
      case Opcode::Tge: return "tge";
      case Opcode::Load: return "load";
      case Opcode::Store: return "store";
      case Opcode::Br: return "br";
      case Opcode::Ret: return "ret";
    }
    panic("unknown opcode");
}

int
opcodeNumSrcs(Opcode op)
{
    switch (op) {
      case Opcode::Mov:
      case Opcode::Neg:
      case Opcode::Not:
        return 1;
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul:
      case Opcode::Div:
      case Opcode::Mod:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Shl:
      case Opcode::Shr:
      case Opcode::Band:
      case Opcode::Bandc:
      case Opcode::Teq:
      case Opcode::Tne:
      case Opcode::Tlt:
      case Opcode::Tle:
      case Opcode::Tgt:
      case Opcode::Tge:
      case Opcode::Load:
        return 2;
      case Opcode::Store:
        return 3;
      case Opcode::Br:
        return 0;
      case Opcode::Ret:
        return 1; // optional value; may be None
    }
    panic("unknown opcode");
}

bool
opcodeHasDest(Opcode op)
{
    switch (op) {
      case Opcode::Store:
      case Opcode::Br:
      case Opcode::Ret:
        return false;
      default:
        return true;
    }
}

bool
opcodeIsBranch(Opcode op)
{
    return op == Opcode::Br || op == Opcode::Ret;
}

bool
opcodeIsTest(Opcode op)
{
    switch (op) {
      case Opcode::Teq:
      case Opcode::Tne:
      case Opcode::Tlt:
      case Opcode::Tle:
      case Opcode::Tgt:
      case Opcode::Tge:
        return true;
      default:
        return false;
    }
}

bool
opcodeIsMemory(Opcode op)
{
    return op == Opcode::Load || op == Opcode::Store;
}

bool
opcodeIsPure(Opcode op)
{
    return opcodeHasDest(op) && op != Opcode::Load;
}

int
opcodeLatency(Opcode op)
{
    switch (op) {
      case Opcode::Mul:
        return 3;
      case Opcode::Div:
      case Opcode::Mod:
        return 24;
      case Opcode::Load:
        return 3;
      default:
        return 1;
    }
}

int64_t
evalOpcode(Opcode op, int64_t a, int64_t b)
{
    switch (op) {
      case Opcode::Mov: return a;
      case Opcode::Add: return a + b;
      case Opcode::Sub: return a - b;
      case Opcode::Mul: return a * b;
      case Opcode::Div: return b == 0 ? 0 : a / b;
      case Opcode::Mod: return b == 0 ? 0 : a % b;
      case Opcode::Neg: return -a;
      case Opcode::And: return a & b;
      case Opcode::Or:  return a | b;
      case Opcode::Xor: return a ^ b;
      case Opcode::Not: return ~a;
      case Opcode::Band: return (a != 0) && (b != 0);
      case Opcode::Bandc: return (a != 0) && (b == 0);
      case Opcode::Shl: return a << (b & 63);
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

bool
opcodeIsCommutative(Opcode op)
{
    switch (op) {
      case Opcode::Band:
      case Opcode::Add:
      case Opcode::Mul:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Teq:
      case Opcode::Tne:
        return true;
      default:
        return false;
    }
}

} // namespace chf
