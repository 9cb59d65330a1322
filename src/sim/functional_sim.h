/**
 * @file
 * Functional (architecture-timing-free) simulator.
 *
 * Executes a program block by block, evaluating predicates, and collects
 * the counts the paper's fast simulator provides: blocks executed
 * (Table 3's metric), instructions fetched/executed, per-branch fire
 * counts (the profile), and optionally the full block trace (for trip
 * histograms). It also serves as the semantic oracle: transforms must
 * leave the return value and final memory bit-identical.
 *
 * It asserts the EDGE block invariant that exactly one branch (Br or
 * Ret) fires per block execution.
 */

#ifndef CHF_SIM_FUNCTIONAL_SIM_H
#define CHF_SIM_FUNCTIONAL_SIM_H

#include <cstdint>
#include <vector>

#include "analysis/profile.h"
#include "ir/program.h"

namespace chf {

/** Options controlling a functional run. */
struct FuncSimOptions
{
    /** Abort (fatal) after this many block executions. */
    uint64_t maxBlocks = 200'000'000;

    /** Record the executed-block trace (needed for trip histograms). */
    bool recordTrace = false;

    /** Budget overrun throws RecoverableError instead of fatal. The
     *  fuzz harness uses this so a runaway generated program is a
     *  reportable (and shrinkable) failure, not process death. */
    bool throwOnBudget = false;
};

/** Result of a functional run. */
struct FuncSimResult
{
    int64_t returnValue = 0;
    uint64_t blocksExecuted = 0;

    /** Static block sizes summed over executions (fetch work). */
    uint64_t instsFetched = 0;

    /** Instructions whose predicate evaluated true. */
    uint64_t instsExecuted = 0;

    /** Final memory image after the run. */
    MemoryImage memory;

    /** Hash of the final memory (cheap equality check). */
    uint64_t memoryHash = 0;

    /** Executions per block id. */
    std::vector<uint64_t> blockCounts;

    /** Fire counts per block per instruction index (branches only). */
    std::vector<std::vector<uint64_t>> branchFires;

    /** Executed block ids in order (only if recordTrace). */
    std::vector<BlockId> trace;
};

/**
 * Run @p program with @p args (falls back to program.defaultArgs).
 * Registers start at zero except arguments.
 */
FuncSimResult runFunctional(const Program &program,
                            const std::vector<int64_t> &args = {},
                            const FuncSimOptions &options = {});

/**
 * Profile @p program: run it functionally, annotate branch frequencies
 * onto the function, and return its loop trip histograms.
 */
ProfileData profileProgram(Program &program,
                           const std::vector<int64_t> &args = {});

} // namespace chf

#endif // CHF_SIM_FUNCTIONAL_SIM_H
