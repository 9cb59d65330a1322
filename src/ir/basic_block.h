/**
 * @file
 * A block of predicated instructions.
 *
 * Before hyperblock formation a block is a classical basic block ending
 * in branches; after formation it is a TRIPS block: a single-entry,
 * multiple-exit, predicated region in which exactly one branch fires per
 * execution. Both use the same representation.
 */

#ifndef CHF_IR_BASIC_BLOCK_H
#define CHF_IR_BASIC_BLOCK_H

#include <string>
#include <vector>

#include "ir/instruction.h"

namespace chf {

/** A (hyper)block: a sequence of predicated instructions. */
class BasicBlock
{
  public:
    BasicBlock(BlockId id, std::string name)
        : blockId(id), blockName(std::move(name))
    {
    }

    BlockId id() const { return blockId; }
    const std::string &name() const { return blockName; }

    /**
     * Become a copy of @p other (id, name, and instructions) while
     * reusing this block's existing instruction/string capacity. The
     * merge engine's scratch arena re-targets one block object per
     * trial instead of constructing fresh vectors (copy-assignment of
     * std::vector reuses the destination's allocation when it fits).
     */
    void
    assignFrom(const BasicBlock &other)
    {
        blockId = other.blockId;
        blockName = other.blockName;
        insts = other.insts;
    }

    std::vector<Instruction> insts;

    /** Number of instructions. */
    size_t size() const { return insts.size(); }

    /** Append an instruction and return its index. */
    size_t
    append(const Instruction &inst)
    {
        insts.push_back(inst);
        return insts.size() - 1;
    }

    /** Distinct successor block ids, in first-appearance order. */
    std::vector<BlockId> successors() const;

    /** All branch instruction indices (Br and Ret), ascending. */
    std::vector<size_t> branchIndices() const;

    /** True if any instruction is a Ret. */
    bool hasReturn() const;

    /** Sum of branch frequencies: expected executions of this block. */
    double frequency() const;

    /** Count of Load and Store instructions. */
    size_t memoryOpCount() const;

  private:
    BlockId blockId;
    std::string blockName;
};

} // namespace chf

#endif // CHF_IR_BASIC_BLOCK_H
