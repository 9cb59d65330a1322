/**
 * @file
 * Architectural state shared by the functional and timing simulators:
 * the register file, the memory image, operand and predicate
 * evaluation, and the binding of a run's arguments. Internal to
 * src/sim; both simulators execute the IR through this one definition,
 * so they cannot drift apart on what a register or operand holds.
 */

#ifndef CHF_SIM_MACHINE_H
#define CHF_SIM_MACHINE_H

#include <cstdint>
#include <vector>

#include "ir/program.h"
#include "support/fatal.h"

namespace chf::detail {

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

} // namespace chf::detail

#endif // CHF_SIM_MACHINE_H
