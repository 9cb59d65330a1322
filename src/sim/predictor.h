/**
 * @file
 * Next-block predictor.
 *
 * TRIPS fetches speculatively using next-block prediction; a
 * misprediction flushes the speculative blocks and refetches after the
 * branch resolves (paper §2, §5 "Branch predictability"). This model is
 * a gshare-style target predictor: a table indexed by the current block
 * id XOR a global history of recent successors, each entry holding a
 * predicted target with 2-bit hysteresis.
 */

#ifndef CHF_SIM_PREDICTOR_H
#define CHF_SIM_PREDICTOR_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ir/value.h"

namespace chf {

/** gshare-style next-block target predictor. */
class NextBlockPredictor
{
  public:
    explicit NextBlockPredictor(unsigned table_bits = 12);

    /** Predicted successor of @p current; kNoBlock when cold. */
    BlockId predict(BlockId current) const;

    /** Train with the actual successor and advance the history. */
    void update(BlockId current, BlockId actual);

  private:
    size_t index(BlockId current) const;

    struct Entry
    {
        BlockId target = kNoBlock;
        uint8_t confidence = 0; ///< 0..3
    };

    std::vector<Entry> table;
    size_t mask;
    uint64_t history = 0;
};

} // namespace chf

#endif // CHF_SIM_PREDICTOR_H
