/**
 * @file
 * Cycle-level timing simulator for a TRIPS-like EDGE processor.
 *
 * This is the reproduction's substitute for the paper's proprietary
 * cycle-accurate simulator. It models the first-order mechanisms the
 * paper's results depend on:
 *
 *  - Block-atomic execution: blocks are fetched and mapped with a fixed
 *    latency, at most 8 are in flight, and commits are serialized one
 *    per cycle -- so executed-block count carries a per-block overhead
 *    (the linear relation behind Fig. 7).
 *  - Dataflow issue inside a block: an instruction issues when its
 *    operands (including its predicate) arrive; operands travel one
 *    cycle per Manhattan hop between the 4x4 execution tiles of the
 *    scheduler's placement; each tile issues one instruction per cycle.
 *  - Early block completion: the block's outputs are the times of its
 *    *fired* instructions only; a long falsely-predicated path does not
 *    delay commit (the EDGE property that makes dependence-height
 *    heuristics less important, paper §5).
 *  - Predication turning control into data dependence: a predicated
 *    instruction waits for its predicate, so a tail-duplicated
 *    induction update stalls on the exit test -- the bzip2_3 effect of
 *    Table 2.
 *  - Next-block prediction with misprediction flushes: a wrong
 *    prediction restarts fetch after the branch resolves plus a
 *    penalty, so removing unpredictable branches pays (parser_1).
 *
 * Values crossing blocks flow through the register file and are
 * forwarded as produced.
 */

#ifndef CHF_SIM_TIMING_SIM_H
#define CHF_SIM_TIMING_SIM_H

#include "backend/scheduler.h"
#include "ir/program.h"
#include "sim/predictor.h"

namespace chf {

/** Microarchitectural parameters. */
struct TimingConfig
{
    SchedulerOptions grid;

    /** Cycles from fetch start to first instruction eligible. */
    int fetchMapLatency = 10;

    /** Instructions entering the block per cycle after map. */
    int fetchBandwidth = 16;

    /** Speculative block window (TRIPS: 8 blocks, 7 speculative). */
    int maxInFlightBlocks = 8;

    /** Extra cycles after branch resolution on a misprediction. */
    int mispredictPenalty = 14;

    /** Cycles from last output to commit. */
    int commitLatency = 2;

    /**
     * Register file access latency for cross-block values: a round
     * trip through the register tiles and operand network. In-block
     * producer-consumer pairs avoid it -- the communication saving
     * that motivates dense hyperblocks.
     */
    int regReadLatency = 2;

    /**
     * Minimum cycles between consecutive block fetch starts: the
     * per-block protocol cost (prediction, header fetch, tile
     * distribution) that underfull blocks cannot amortize -- the
     * `overhead` term of the paper's cycles = base + blocks * overhead
     * relation (§7.3).
     */
    int blockDispatchInterval = 10;

    unsigned predictorBits = 12;

    uint64_t maxBlocks = 100'000'000;
};

/** Result of a timing run. */
struct TimingResult
{
    uint64_t cycles = 0;
    uint64_t blocksExecuted = 0;
    uint64_t instsExecuted = 0;
    uint64_t branchPredictions = 0;
    uint64_t branchMispredicts = 0;
    int64_t returnValue = 0;
    uint64_t memoryHash = 0;

    double
    mispredictRate() const
    {
        return branchPredictions == 0
                   ? 0.0
                   : static_cast<double>(branchMispredicts) /
                         static_cast<double>(branchPredictions);
    }
};

/**
 * Run @p program through the timing model with @p args (falls back to
 * program.defaultArgs). Each block is placed with scheduleBlock and
 * decoded the first time it executes; later executions reuse that
 * decode and per-run state, so they allocate nothing.
 */
TimingResult runTiming(const Program &program,
                       const TimingConfig &config = {},
                       const std::vector<int64_t> &args = {});

} // namespace chf

#endif // CHF_SIM_TIMING_SIM_H
