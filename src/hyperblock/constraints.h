/**
 * @file
 * Structural block constraints and the block size estimator.
 *
 * Constraint checks are parameterized by a chf::TargetModel
 * (target/target_model.h): block instruction budget, LSQ-bounded
 * memory-op budget, register-bank geometry, and an optional branch
 * cap. The reference model is the TRIPS ISA — at most 128 instructions
 * per block, 32 load/store identifiers, 8 reads and 8 writes per each
 * of 4 register banks, a constant number of outputs (paper §2).
 * Because register reads/writes, null-write compensation, and fanout
 * moves are inserted by later phases (Fig. 6), hyperblock formation
 * must *estimate* the final size of a candidate block; this header
 * provides the estimator and the legality check.
 */

#ifndef CHF_HYPERBLOCK_CONSTRAINTS_H
#define CHF_HYPERBLOCK_CONSTRAINTS_H

#include <array>
#include <string>

#include "ir/function.h"
#include "support/bitvector.h"
#include "target/target_model.h"

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

    /** Per-bank counts under the target's bank geometry (populated up
     *  to TargetModel::effectiveBanks() entries). */
    std::array<size_t, TargetModel::kMaxBanks> bankReads{};
    std::array<size_t, TargetModel::kMaxBanks> bankWrites{};

    /** Predicted instruction count after all later phases. */
    size_t
    estimatedInsts() const
    {
        return insts + fanoutMoves + nullWrites;
    }
};

/** Reusable bitvector storage for analyzeBlock / checkBlockLegal. */
struct BlockAnalysisScratch
{
    BitVector uses;
    BitVector killed;
    BitVector defs;
};

/**
 * Analyze @p bb: count memory ops and exit branches, distinct register
 * reads/writes with bank assignments under @p target's geometry
 * (pre-allocation proxy: vreg modulo the target's bank count, so a
 * 2-bank and an 8-bank model yield different per-bank estimates), and
 * predict the fanout moves and null writes later phases will add.
 */
BlockResources analyzeBlock(const Function &fn, const BasicBlock &bb,
                            const BitVector &live_out,
                            const TargetModel &target,
                            BlockAnalysisScratch *scratch = nullptr);

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
 * them), so formation checks total reads/writes only; pass
 * @p check_banks = true for post-allocation validation where the bank
 * counts reflect physical registers.
 */
std::string checkBlockLegal(const BlockResources &res,
                            const TargetModel &target,
                            size_t headroom = 0,
                            bool check_banks = false);

/** Convenience: analyze + check. */
std::string checkBlockLegal(const Function &fn, const BasicBlock &bb,
                            const BitVector &live_out,
                            const TargetModel &target,
                            size_t headroom = 0,
                            BlockAnalysisScratch *scratch = nullptr);

} // namespace chf

#endif // CHF_HYPERBLOCK_CONSTRAINTS_H
