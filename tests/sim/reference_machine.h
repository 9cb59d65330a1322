/**
 * @file
 * The interpreter state the simulators used before they decoded blocks
 * into micro-ops: a register file, the memory image, and operand and
 * predicate evaluation straight from the IR. The reference simulators
 * (reference_functional.h, reference_timing.h) run on it, so they share
 * no execution code with the simulators they check.
 */

#ifndef CHF_TESTS_SIM_REFERENCE_MACHINE_H
#define CHF_TESTS_SIM_REFERENCE_MACHINE_H

#include <cstdint>
#include <vector>

#include "ir/program.h"
#include "support/fatal.h"

namespace chf::reference {

/** Interpreter state for one run. */
struct Machine
{
    std::vector<int64_t> regs;
    MemoryImage memory;

    /**
     * Zeroed registers, a copy of @p program's memory image, and the
     * function's argument registers bound to @p args (to
     * program.defaultArgs when @p args is empty).
     */
    Machine(const Program &program, const std::vector<int64_t> &args)
        : regs(program.fn.numVregs(), 0), memory(program.memory)
    {
        const Function &fn = program.fn;
        const std::vector<int64_t> &actual_args =
            args.empty() ? program.defaultArgs : args;
        CHF_ASSERT(actual_args.size() >= fn.argRegs.size(),
                   "too few arguments for program");
        for (size_t i = 0; i < fn.argRegs.size(); ++i)
            regs[fn.argRegs[i]] = actual_args[i];
    }

    int64_t
    value(const Operand &op) const
    {
        switch (op.kind) {
          case Operand::Kind::Reg:
            return regs[op.reg];
          case Operand::Kind::Imm:
            return op.imm;
          case Operand::Kind::None:
            return 0;
        }
        return 0;
    }

    bool
    predicateHolds(const Predicate &pred) const
    {
        if (!pred.valid())
            return true;
        bool truth = regs[pred.reg] != 0;
        return pred.onTrue ? truth : !truth;
    }
};

} // namespace chf::reference

#endif // CHF_TESTS_SIM_REFERENCE_MACHINE_H
