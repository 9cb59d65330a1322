/**
 * @file
 * Constant-block-output normalization.
 *
 * The TRIPS microarchitecture detects block completion by counting
 * outputs, so every block must produce a constant number of register
 * writes and stores plus exactly one branch (paper §2, constraint 4;
 * guaranteed via SSA in Smith et al. [24]). For every live-out register
 * whose writes in a block are all predicated, this pass appends a
 * guarded self-move that fires exactly when no real writer fired, so
 * one write per output register is produced on every path. The moves
 * are semantic no-ops; their cost is the size and latency overhead the
 * paper attributes to tail duplication on EDGE targets.
 */

#ifndef CHF_TRANSFORM_NORMALIZE_OUTPUTS_H
#define CHF_TRANSFORM_NORMALIZE_OUTPUTS_H

#include "ir/function.h"
#include "support/bitvector.h"
#include "support/stamped_table.h"

namespace chf {

/**
 * Reusable per-register writer table for normalizeOutputs and
 * predictNullWrites. A block resets it in O(1), so a caller walking
 * many blocks (the merge engine's legality check across trials,
 * normalizeOutputsFunction across a function) allocates nothing once
 * warm.
 */
struct NullWriteScratch
{
    /** The writers of one live-out register in the current block. */
    struct Writers
    {
        Vreg reg = kNoVreg;
        uint32_t predicated = 0; ///< predicated writers seen
        bool unpredicated = false;
        Predicate first, second, last; ///< of the predicated writers
    };

    /** Per register: its index in writers. */
    StampedTable<uint32_t> slots;
    /** This block's written live-out registers, in first-write order. */
    std::vector<Writers> writers;
};

/**
 * Normalize one block. Null writes are appended in ascending register
 * order. @return number of instructions appended.
 */
size_t normalizeOutputs(BasicBlock &bb, const BitVector &live_out,
                        NullWriteScratch &scratch);

/**
 * Exactly the number of instructions normalizeOutputs would append to
 * @p bb, without copying the block or appending anything. The block
 * size estimator calls this once per merge trial; it must never drift
 * from the pass (both walk the same writer-collection logic).
 */
size_t predictNullWrites(const BasicBlock &bb, const BitVector &live_out,
                         NullWriteScratch &scratch);

/** Normalize every block of @p fn. @return total appended. */
size_t normalizeOutputsFunction(Function &fn);

} // namespace chf

#endif // CHF_TRANSFORM_NORMALIZE_OUTPUTS_H
