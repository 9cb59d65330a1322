#include "ir/opcode.h"

#include "support/fatal.h"

namespace chf {

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

} // namespace chf
