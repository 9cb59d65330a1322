#include "ir/function.h"

#include <algorithm>

#include "support/fatal.h"

namespace chf {

BasicBlock *
Function::newBlock(const std::string &name)
{
    BlockId id = static_cast<BlockId>(blocks.size());
    std::string block_name =
        name.empty() ? ("bb" + std::to_string(id)) : name;
    blocks.push_back(std::make_unique<BasicBlock>(id, block_name));
    return blocks.back().get();
}

BasicBlock *
Function::block(BlockId id)
{
    CHF_ASSERT(id < blocks.size(), "block id out of range");
    return blocks[id].get();
}

const BasicBlock *
Function::block(BlockId id) const
{
    CHF_ASSERT(id < blocks.size(), "block id out of range");
    return blocks[id].get();
}

void
Function::removeBlock(BlockId id)
{
    CHF_ASSERT(id < blocks.size(), "block id out of range");
    CHF_ASSERT(id != entryBlock, "cannot remove entry block");
    blocks[id].reset();
}

std::vector<BlockId>
Function::blockIds() const
{
    std::vector<BlockId> out;
    for (size_t i = 0; i < blocks.size(); ++i) {
        if (blocks[i])
            out.push_back(static_cast<BlockId>(i));
    }
    return out;
}

size_t
Function::numBlocks() const
{
    size_t n = 0;
    for (const auto &bb : blocks) {
        if (bb)
            ++n;
    }
    return n;
}

PredecessorMap
Function::predecessors() const
{
    PredecessorMap preds(blocks.size());
    for (const auto &bb : blocks) {
        if (!bb)
            continue;
        for (BlockId succ : bb->successors()) {
            auto &list = preds[succ];
            if (std::find(list.begin(), list.end(), bb->id()) == list.end())
                list.push_back(bb->id());
        }
    }
    return preds;
}

std::vector<BlockId>
Function::reversePostOrder() const
{
    std::vector<BlockId> post;
    std::vector<uint8_t> visited(blocks.size(), 0);
    // Iterative DFS with an explicit stack of (block, next-inst-index).
    // Branch targets are scanned out of the instruction stream in
    // place; revisits of a duplicate target are skipped by the visited
    // bits, so the traversal (and thus the order) matches what a
    // deduplicated successor list would produce -- without
    // materializing one per block.
    std::vector<std::pair<BlockId, size_t>> stack;
    if (entryBlock == kNoBlock)
        return post;
    stack.emplace_back(entryBlock, 0);
    visited[entryBlock] = 1;
    while (!stack.empty()) {
        auto &[id, next] = stack.back();
        const auto &insts = blocks[id]->insts;
        size_t i = next;
        while (i < insts.size() && insts[i].op != Opcode::Br)
            ++i;
        if (i < insts.size()) {
            BlockId s = insts[i].target;
            next = i + 1;
            if (s < blocks.size() && blocks[s] && !visited[s]) {
                visited[s] = 1;
                stack.emplace_back(s, 0);
            }
        } else {
            post.push_back(id);
            stack.pop_back();
        }
    }
    std::reverse(post.begin(), post.end());
    return post;
}

size_t
Function::removeUnreachable()
{
    std::vector<uint8_t> reachable(blocks.size(), 0);
    for (BlockId id : reversePostOrder())
        reachable[id] = 1;
    size_t removed = 0;
    for (size_t i = 0; i < blocks.size(); ++i) {
        if (blocks[i] && !reachable[i]) {
            blocks[i].reset();
            ++removed;
        }
    }
    return removed;
}

size_t
Function::totalInsts() const
{
    size_t n = 0;
    for (const auto &bb : blocks) {
        if (bb)
            n += bb->size();
    }
    return n;
}

Function
Function::clone() const
{
    Function copy(functionName);
    copy.entryBlock = entryBlock;
    copy.vregCount = vregCount;
    copy.argRegs = argRegs;
    copy.blocks.reserve(blocks.size());
    for (const auto &bb : blocks) {
        if (bb) {
            auto nb = std::make_unique<BasicBlock>(bb->id(), bb->name());
            nb->insts = bb->insts;
            copy.blocks.push_back(std::move(nb));
        } else {
            copy.blocks.push_back(nullptr);
        }
    }
    return copy;
}

} // namespace chf
