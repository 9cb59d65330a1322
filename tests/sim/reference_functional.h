/**
 * @file
 * The functional simulator as it was before it decoded blocks into
 * micro-ops, kept as the reference runFunctional must match on every
 * FuncSimResult field: it walks the IR of every executed block and
 * evaluates each operand and predicate from it (reference_machine.h).
 * Its profileProgram is the production one's body run on this
 * interpreter.
 */

#ifndef CHF_TESTS_SIM_REFERENCE_FUNCTIONAL_H
#define CHF_TESTS_SIM_REFERENCE_FUNCTIONAL_H

#include <vector>

#include "analysis/loops.h"
#include "analysis/profile.h"
#include "ir/printer.h"
#include "reference_machine.h"
#include "sim/functional_sim.h"
#include "support/diagnostics.h"
#include "support/fatal.h"

namespace chf::reference {

inline FuncSimResult
runFunctional(const Program &program, const std::vector<int64_t> &args = {},
              const FuncSimOptions &options = {})
{
    const Function &fn = program.fn;
    FuncSimResult result;

    Machine m(program, args);

    result.blockCounts.assign(fn.blockTableSize(), 0);
    result.branchFires.assign(fn.blockTableSize(), {});

    BlockId current = fn.entry();
    bool returned = false;

    while (!returned) {
        const BasicBlock *bb = fn.block(current);
        CHF_ASSERT(bb != nullptr, "execution reached a removed block");

        if (result.blocksExecuted >= options.maxBlocks) {
            if (options.throwOnBudget) {
                throwInputError(
                    "sim", SourceLoc{},
                    concat("functional simulation exceeded ",
                           options.maxBlocks, " blocks (infinite loop?)"));
            }
            fatal(concat("functional simulation exceeded ",
                         options.maxBlocks, " blocks (infinite loop?)"));
        }

        ++result.blocksExecuted;
        ++result.blockCounts[current];
        result.instsFetched += bb->size();
        if (options.recordTrace)
            result.trace.push_back(current);

        auto &fires = result.branchFires[current];
        if (fires.size() < bb->size())
            fires.resize(bb->size(), 0);

        // Execute the whole block: every instruction whose predicate
        // holds fires, including those after a firing branch (EDGE
        // blocks are atomic dataflow regions, not sequenced code).
        BlockId next = kNoBlock;
        size_t branches_fired = 0;

        for (size_t i = 0; i < bb->insts.size(); ++i) {
            const Instruction &inst = bb->insts[i];
            if (!m.predicateHolds(inst.pred))
                continue;
            ++result.instsExecuted;

            switch (inst.op) {
              case Opcode::Load:
                m.regs[inst.dest] = m.memory.read(
                    m.value(inst.srcs[0]) + m.value(inst.srcs[1]));
                break;
              case Opcode::Store:
                m.memory.write(
                    m.value(inst.srcs[0]) + m.value(inst.srcs[1]),
                    m.value(inst.srcs[2]));
                break;
              case Opcode::Br:
                ++branches_fired;
                ++fires[i];
                next = inst.target;
                break;
              case Opcode::Ret:
                ++branches_fired;
                ++fires[i];
                returned = true;
                result.returnValue = m.value(inst.srcs[0]);
                break;
              default:
                m.regs[inst.dest] =
                    evalOpcode(inst.op, m.value(inst.srcs[0]),
                             m.value(inst.srcs[1]));
                break;
            }
        }

        if (branches_fired != 1) {
            panic(concat("block bb", current, " fired ", branches_fired,
                         " branches in one execution (must be exactly 1)"
                         "\n", toString(*bb)));
        }

        if (!returned)
            current = next;
    }

    result.memoryHash = m.memory.hash();
    result.memory = std::move(m.memory);
    return result;
}

inline ProfileData
profileProgram(Program &program, const std::vector<int64_t> &args = {})
{
    FuncSimOptions options;
    options.recordTrace = true;
    FuncSimResult run = reference::runFunctional(program, args, options);

    annotateBranchFrequencies(program.fn, run.branchFires);

    ProfileData profile;
    LoopInfo loops(program.fn);
    profile.trips = computeTripHistograms(run.trace, loops);
    return profile;
}

} // namespace chf::reference

#endif // CHF_TESTS_SIM_REFERENCE_FUNCTIONAL_H
