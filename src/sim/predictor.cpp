#include "sim/predictor.h"

namespace chf {

NextBlockPredictor::NextBlockPredictor(unsigned table_bits)
    : table(size_t(1) << table_bits), mask((size_t(1) << table_bits) - 1)
{
}

size_t
NextBlockPredictor::index(BlockId current) const
{
    uint64_t h = history * 0x9e3779b97f4a7c15ull;
    return (static_cast<size_t>(current) * 0x100000001b3ull ^ h) & mask;
}

BlockId
NextBlockPredictor::predict(BlockId current) const
{
    const Entry &entry = table[index(current)];
    return entry.confidence > 0 ? entry.target : kNoBlock;
}

void
NextBlockPredictor::update(BlockId current, BlockId actual)
{
    Entry &entry = table[index(current)];
    if (entry.target == actual) {
        if (entry.confidence < 3)
            ++entry.confidence;
    } else if (entry.confidence > 1) {
        --entry.confidence;
    } else {
        entry.target = actual;
        entry.confidence = 1;
    }
    history = (history << 2) ^ (actual & 0x3) ^ (history >> 48);
}

} // namespace chf
