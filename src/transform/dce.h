/**
 * @file
 * Dead code elimination.
 *
 * Removes pure instructions whose destination is not read before being
 * killed and is not live out of the block. Predication is respected: a
 * predicated write does not kill the old value.
 */

#ifndef CHF_TRANSFORM_DCE_H
#define CHF_TRANSFORM_DCE_H

#include "ir/function.h"
#include "support/bitvector.h"

namespace chf {

/** Reusable working storage for eliminateDeadCode. */
struct DceScratch
{
    BitVector live;
    std::vector<uint8_t> keep;
    std::vector<Instruction> kept;
};

/**
 * Remove dead pure instructions from @p bb given the registers live on
 * exit. @return number of instructions removed.
 */
size_t eliminateDeadCode(BasicBlock &bb, const BitVector &live_out,
                         DceScratch &scratch);

} // namespace chf

#endif // CHF_TRANSFORM_DCE_H
