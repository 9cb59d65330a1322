/**
 * @file
 * Register allocation for a TRIPS-like target.
 *
 * Within an EDGE block, temporaries communicate directly between
 * instructions and consume no architectural registers; only values
 * live *across* blocks need one of the 128 registers (paper §9, "Basic
 * block splitting": "temporary values do not consume architectural
 * registers due to direct instruction communication"). The allocator
 * therefore assigns physical registers only to cross-block live
 * values, spilling the coldest ones to a reserved memory region when
 * demand exceeds the file. Spill code can push a block over the
 * structural limits, in which case the block is split (reverse
 * if-conversion, paper §6) and allocation re-validated.
 *
 * Spill code goes in with one rewrite per block for all spilled values
 * (DESIGN.md §14).
 */

#ifndef CHF_BACKEND_REGALLOC_H
#define CHF_BACKEND_REGALLOC_H

#include <vector>

#include "analysis/liveness.h"
#include "hyperblock/constraints.h"
#include "ir/program.h"

namespace chf {

/** Allocation configuration. */
struct RegAllocOptions
{
    size_t numPhysRegs = 128;

    /** Target description; bounds the post-spill block splitting and
     *  (via the caller) numPhysRegs. Defaults to the TRIPS model. */
    TargetModel target;
};

/** Allocation outcome. */
struct RegAllocResult
{
    size_t crossBlockValues = 0;
    size_t spilledValues = 0;
    size_t spillInstsInserted = 0;
    size_t blocksSplit = 0;
};

/**
 * Insert the spill code for @p spilled, whose value i lives in memory
 * word @p slot_base + i, into every block of @p fn, rewriting each
 * block at most once. A block stores a value at exit if it defines it
 * and the value is live out. It reloads a live-in value at entry if it
 * reads it before any unpredicated redefinition, or if it stores it at
 * exit and some def of it is predicated (the old value may flow
 * through). Reloads come last-spilled-first, stores in spill order.
 * The entry block first stores every spilled argument (arguments
 * arrive in registers), also last-spilled-first. Each block is walked
 * once, and only the spilled values it mentions are examined.
 * @p liveness is the analysis of @p fn before the rewrite and must
 * cover every spilled register.
 *
 * @return instructions inserted.
 */
size_t insertSpillCode(Function &fn, const std::vector<Vreg> &spilled,
                       int64_t slot_base, const Liveness &liveness);

/**
 * Allocate registers for @p program, inserting spill code and
 * splitting blocks as needed. The memory image gains (or reuses) a
 * "spill" region.
 */
RegAllocResult allocateRegisters(Program &program,
                                 const RegAllocOptions &options = {});

} // namespace chf

#endif // CHF_BACKEND_REGALLOC_H
