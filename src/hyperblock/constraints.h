/**
 * @file
 * Structural block constraints and the block size estimator.
 *
 * Constraint checks are parameterized by a chf::TargetModel
 * (target/target_model.h): block instruction budget, memory-op
 * budget, register read/write totals (banks times per-bank limits),
 * and an optional branch cap. The reference model is the
 * TRIPS ISA — at most 128 instructions per block, 32 load/store
 * identifiers, 8 reads and 8 writes per each of 4 register banks, a
 * constant number of outputs (paper §2).
 * Because register reads/writes, null-write compensation, and fanout
 * moves are inserted by later phases (Fig. 6), hyperblock formation
 * must *estimate* the final size of a candidate block; this header
 * provides the estimator and the legality check.
 */

#ifndef CHF_HYPERBLOCK_CONSTRAINTS_H
#define CHF_HYPERBLOCK_CONSTRAINTS_H

#include <string>

#include "ir/function.h"
#include "support/bitvector.h"
#include "support/stamped_table.h"
#include "target/target_model.h"
#include "transform/normalize_outputs.h"

namespace chf {

/** Measured/estimated resource usage of one block. */
struct BlockResources
{
    size_t insts = 0;        ///< current instruction count
    size_t fanoutMoves = 0;  ///< predicted fanout tree moves
    size_t nullWrites = 0;   ///< predicted output-normalization insts
    size_t memOps = 0;       ///< static loads + stores
    size_t branches = 0;     ///< exit branches (Br instructions)
    size_t regReads = 0;     ///< distinct upward-exposed registers
    size_t regWrites = 0;    ///< distinct live-out written registers

    /** Predicted instruction count after all later phases. */
    size_t
    estimatedInsts() const
    {
        return insts + fanoutMoves + nullWrites;
    }
};

/**
 * Reusable storage for analyzeBlock / checkBlockLegal. The merge
 * engine keeps one across all trials of a function. A trial resets the
 * register table in O(1) instead of O(vregs) and allocates nothing
 * once warm.
 */
struct BlockAnalysisScratch
{
    /** One register's part in the block being analyzed. */
    struct Reg
    {
        uint32_t consumers = 0; ///< in-block readers of its current value
        bool exposed = false;   ///< read before any unpredicated write
        bool killed = false;    ///< written unpredicated so far
        bool written = false;   ///< written at all
    };

    StampedTable<Reg> regs;
    std::vector<Vreg> touched; ///< the registers in regs, first-touch order

    NullWriteScratch nullWrites;
};

/**
 * Analyze @p bb: count memory ops, exit branches and distinct register
 * reads/writes, and predict the fanout moves and null writes later
 * phases will add.
 */
BlockResources analyzeBlock(const BasicBlock &bb, const BitVector &live_out,
                            BlockAnalysisScratch &scratch);

/**
 * The exact rejection string checkBlockLegal returns when the size
 * estimate violates maxInsts (the first check). Free of the estimate
 * itself, so the merge engine's block-splitting path can recognize a
 * size failure by comparing reasons.
 */
std::string blockSizeReason(const TargetModel &target, size_t headroom);

/**
 * Check @p res against @p target with @p headroom instructions
 * reserved for spill code. Returns an empty string when legal, else a
 * human-readable reason.
 *
 * Before register allocation banks are unknown (the allocator balances
 * them), so register reads and writes are checked as totals against
 * the target's banks times its per-bank limits.
 */
std::string checkBlockLegal(const BlockResources &res,
                            const TargetModel &target,
                            size_t headroom = 0);

/** Convenience: analyze + check. */
std::string checkBlockLegal(const BasicBlock &bb, const BitVector &live_out,
                            const TargetModel &target, size_t headroom,
                            BlockAnalysisScratch &scratch);

} // namespace chf

#endif // CHF_HYPERBLOCK_CONSTRAINTS_H
