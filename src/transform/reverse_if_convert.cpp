#include "transform/reverse_if_convert.h"

#include "support/fatal.h"

namespace chf {

namespace {

/**
 * Snapshot every register a branch reads — its predicate AND, for a
 * ret, its value operand — when that register is redefined after the
 * branch's position, so branches can be moved to the end of the
 * instruction stream without changing their outcome. The value
 * operand matters just as much as the predicate: after register
 * allocation the same register routinely carries different values at
 * different points of one block, so `ret vR <p>; ...; op vR = ...`
 * returns the wrong value if the ret is sunk past the redefinition.
 */
void
stabilizeBranchReads(Function &fn, BasicBlock &bb)
{
    auto redefinedAfter = [&bb](size_t i, Vreg r) {
        for (size_t j = i + 1; j < bb.insts.size(); ++j) {
            if (bb.insts[j].hasDest() && bb.insts[j].dest == r)
                return true;
        }
        return false;
    };
    std::vector<Instruction> out;
    out.reserve(bb.insts.size());
    for (size_t i = 0; i < bb.insts.size(); ++i) {
        Instruction inst = bb.insts[i];
        if (inst.isBranch()) {
            auto snapshot = [&](Vreg r) {
                Vreg snap = fn.newVreg();
                Instruction copy = Instruction::unary(
                    Opcode::Mov, snap, Operand::makeReg(r));
                copy.pred = Predicate::always();
                out.push_back(copy);
                return snap;
            };
            if (inst.pred.valid() && redefinedAfter(i, inst.pred.reg))
                inst.pred.reg = snapshot(inst.pred.reg);
            for (Operand &src : inst.srcs) {
                if (src.isReg() && redefinedAfter(i, src.reg))
                    src = Operand::makeReg(snapshot(src.reg));
            }
        }
        out.push_back(inst);
    }
    bb.insts = std::move(out);
}

} // namespace

size_t
splitBlock(Function &fn, BlockId id, const TargetModel &target)
{
    BasicBlock *bb = fn.block(id);
    CHF_ASSERT(bb, "splitBlock on removed block");

    // Budget per part, leaving one slot for the chaining jump.
    size_t max_insts = target.maxInsts - 1;
    size_t max_mem = target.maxMemOps;
    if (bb->size() <= target.maxInsts &&
        bb->memoryOpCount() <= max_mem) {
        return 0;
    }

    stabilizeBranchReads(fn, *bb);

    // Partition: non-branch instructions stream into parts; branches
    // collect into the final part.
    std::vector<Instruction> branches;
    std::vector<std::vector<Instruction>> parts(1);
    size_t cur_insts = 0, cur_mem = 0;
    for (const auto &inst : bb->insts) {
        if (inst.isBranch()) {
            branches.push_back(inst);
            continue;
        }
        size_t mem = opcodeIsMemory(inst.op) ? 1 : 0;
        if (cur_insts + 1 > max_insts || cur_mem + mem > max_mem) {
            parts.emplace_back();
            cur_insts = 0;
            cur_mem = 0;
        }
        parts.back().push_back(inst);
        cur_insts += 1;
        cur_mem += mem;
    }

    // Ensure the final part has room for the branches.
    if (parts.back().size() + branches.size() > target.maxInsts)
        parts.emplace_back();

    if (parts.size() == 1) {
        // Nothing actually moved: put it back together.
        parts[0].insert(parts[0].end(), branches.begin(), branches.end());
        bb->insts = parts[0];
        return 0;
    }

    // Create the chain: part 0 stays in the original block id (so
    // predecessors need no retargeting).
    std::vector<BlockId> chain;
    chain.push_back(id);
    for (size_t p = 1; p < parts.size(); ++p) {
        BasicBlock *nb =
            fn.newBlock(bb->name() + "_part" + std::to_string(p));
        chain.push_back(nb->id());
    }

    double total_freq = 0.0;
    for (const auto &br : branches)
        total_freq += br.freq;

    for (size_t p = 0; p < parts.size(); ++p) {
        BasicBlock *part = fn.block(chain[p]);
        part->insts = parts[p];
        if (p + 1 < parts.size()) {
            part->append(Instruction::br(
                chain[p + 1], Predicate::always(), total_freq));
        } else {
            for (const auto &br : branches)
                part->append(br);
        }
    }
    return parts.size() - 1;
}

BlockId
splitBlockAt(Function &fn, BlockId id, size_t first_insts)
{
    BasicBlock *bb = fn.block(id);
    CHF_ASSERT(bb, "splitBlockAt on removed block");
    if (first_insts < 2 || bb->size() <= first_insts + 1)
        return kNoBlock;

    stabilizeBranchReads(fn, *bb);

    std::vector<Instruction> first, second;
    size_t taken = 0;
    for (const auto &inst : bb->insts) {
        if (!inst.isBranch() && taken < first_insts) {
            first.push_back(inst);
            ++taken;
        } else {
            second.push_back(inst);
        }
    }
    if (first.empty() || second.empty())
        return kNoBlock;

    BasicBlock *rest = fn.newBlock(bb->name() + "_rest");
    rest->insts = std::move(second);

    double freq = bb->frequency();
    first.push_back(
        Instruction::br(rest->id(), Predicate::always(), freq));
    bb->insts = std::move(first);
    return rest->id();
}

size_t
splitOversizedBlocks(Function &fn, const TargetModel &target)
{
    size_t created = 0;
    for (BlockId id : fn.blockIds())
        created += splitBlock(fn, id, target);
    return created;
}

} // namespace chf
