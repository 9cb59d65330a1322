#include "ir/basic_block.h"

#include <algorithm>

namespace chf {

std::vector<BlockId>
BasicBlock::successors() const
{
    std::vector<BlockId> out;
    for (const auto &inst : insts) {
        if (inst.op == Opcode::Br) {
            if (std::find(out.begin(), out.end(), inst.target) == out.end())
                out.push_back(inst.target);
        }
    }
    return out;
}

std::vector<size_t>
BasicBlock::branchIndices() const
{
    std::vector<size_t> out;
    for (size_t i = 0; i < insts.size(); ++i) {
        if (insts[i].isBranch())
            out.push_back(i);
    }
    return out;
}

bool
BasicBlock::hasReturn() const
{
    for (const auto &inst : insts) {
        if (inst.op == Opcode::Ret)
            return true;
    }
    return false;
}

double
BasicBlock::frequency() const
{
    double total = 0.0;
    for (const auto &inst : insts) {
        if (inst.isBranch())
            total += inst.freq;
    }
    return total;
}

size_t
BasicBlock::memoryOpCount() const
{
    size_t n = 0;
    for (const auto &inst : insts) {
        if (opcodeIsMemory(inst.op))
            ++n;
    }
    return n;
}

} // namespace chf
