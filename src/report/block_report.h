/**
 * @file
 * Block-quality reporting.
 *
 * The paper's motivation (§1-§2) is that fixed-format EDGE blocks must
 * be *full* to amortize their per-block cost: "the compiler seeks to
 * fill each block as full as possible". This module measures how well
 * a compiled function fills its blocks, statically and weighted by
 * execution frequency, plus the predication and duplication character
 * of the code -- the numbers a compiler engineer would watch while
 * tuning formation policy.
 */

#ifndef CHF_REPORT_BLOCK_REPORT_H
#define CHF_REPORT_BLOCK_REPORT_H

#include <vector>

#include "hyperblock/constraints.h"
#include "ir/function.h"
#include "sim/functional_sim.h"

namespace chf {

/** Aggregate block-quality metrics for one function. */
struct BlockReport
{
    size_t blocks = 0;
    size_t totalInsts = 0;

    /** Static utilization: mean insts / maxInsts over blocks. */
    double staticUtilization = 0.0;

    /** Dynamic utilization: execution-weighted mean fill. */
    double dynamicUtilization = 0.0;

    /** Fraction of instructions carrying a predicate. */
    double predicatedFraction = 0.0;

    /** Fraction of fetched instructions that executed (fired). */
    double usefulFetchFraction = 0.0;

    /** Histogram of block sizes in 16-instruction buckets. */
    std::vector<size_t> sizeHistogram;

    /** Largest / mean block size. */
    size_t maxBlockSize = 0;
    double meanBlockSize = 0.0;
};

/**
 * Measure @p fn. If @p run is provided (a functional-simulation result
 * for the same function), dynamic metrics are filled; otherwise they
 * are zero.
 */
BlockReport analyzeBlocks(const Function &fn,
                          const TargetModel &target,
                          const FuncSimResult *run = nullptr);

} // namespace chf

#endif // CHF_REPORT_BLOCK_REPORT_H
