/**
 * @file
 * A function: an entry block plus a table of blocks forming a CFG.
 *
 * Blocks are owned by the function and addressed by stable BlockIds.
 * Removing a block leaves a hole so ids of surviving blocks never change;
 * transforms that duplicate code allocate fresh ids. Successor edges are
 * encoded by branch instructions; predecessor maps are computed on demand
 * so there is no edge bookkeeping to invalidate.
 */

#ifndef CHF_IR_FUNCTION_H
#define CHF_IR_FUNCTION_H

#include <memory>
#include <string>
#include <vector>

#include "ir/basic_block.h"

namespace chf {

/** Predecessor map: for each block, the blocks that branch to it. */
using PredecessorMap = std::vector<std::vector<BlockId>>;

/** A single function's control-flow graph. */
class Function
{
  public:
    explicit Function(std::string name = "main")
        : functionName(std::move(name))
    {
    }

    const std::string &name() const { return functionName; }

    /** Allocate a new empty block. */
    BasicBlock *newBlock(const std::string &name = "");

    /** Block by id; nullptr if the id was removed. */
    BasicBlock *block(BlockId id);
    const BasicBlock *block(BlockId id) const;

    /** Remove a block, leaving a hole at its id. */
    void removeBlock(BlockId id);

    /** Replace the instructions of block @p id with those of @p src. */
    void replaceBlockContents(BlockId id, const BasicBlock &src);

    /** Ids of all live blocks, ascending. */
    std::vector<BlockId> blockIds() const;

    /** Number of live blocks. */
    size_t numBlocks() const;

    /** Upper bound on block ids (table size, including holes). */
    size_t blockTableSize() const { return blocks.size(); }

    BlockId entry() const { return entryBlock; }
    void setEntry(BlockId id) { entryBlock = id; }

    /** Allocate a fresh virtual register. */
    Vreg newVreg() { return vregCount++; }

    /**
     * Advance the register counter by @p n without materializing any
     * definitions. A failed-trial memo hit skips a trial that would
     * have allocated @p n registers and burns them here, so every later
     * allocation lands on the same number as if the trial had run.
     */
    void skipVregs(uint32_t n) { vregCount += n; }

    /** Number of virtual registers allocated so far. */
    uint32_t numVregs() const { return vregCount; }

    /** Registers holding the function arguments on entry. */
    std::vector<Vreg> argRegs;

    /** Compute the predecessor map (indexed by block id). */
    PredecessorMap predecessors() const;

    /** Reverse post-order over live blocks starting at the entry. */
    std::vector<BlockId> reversePostOrder() const;

    /** Remove blocks unreachable from the entry. @return count removed. */
    size_t removeUnreachable();

    /** Total instruction count over live blocks. */
    size_t totalInsts() const;

    /** Deep copy (block ids and vreg numbering preserved). */
    Function clone() const;

  private:
    std::string functionName;
    std::vector<std::unique_ptr<BasicBlock>> blocks;
    BlockId entryBlock = kNoBlock;
    uint32_t vregCount = 0;
};

} // namespace chf

#endif // CHF_IR_FUNCTION_H
