/**
 * @file
 * Tests for the CFG-restructuring transforms: combine/if-conversion
 * (paper Fig. 2), head duplication as peeling (Fig. 3) and unrolling
 * (Fig. 4), CFG simplification, for-loop unrolling, block splitting,
 * and output normalization -- each checked both structurally and for
 * semantic preservation via the functional simulator.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/liveness.h"
#include "analysis/loops.h"
#include "hyperblock/phase_ordering.h"
#include "ir/builder.h"
#include "ir/verifier.h"
#include "pipeline/session.h"
#include "sim/functional_sim.h"
#include "transform/cfg_utils.h"
#include "transform/for_loop_unroll.h"
#include "transform/head_duplicate.h"
#include "transform/if_convert.h"
#include "transform/normalize_outputs.h"
#include "transform/reverse_if_convert.h"
#include "transform/simplify_cfg.h"

namespace chf {
namespace {

/** Run a program and return (returnValue, memoryHash). */
std::pair<int64_t, uint64_t>
observe(const Program &program)
{
    FuncSimResult run = runFunctional(program);
    return {run.returnValue, run.memoryHash};
}

// ----- cfg_utils -----

TEST(CfgUtils, BranchesToAndFreq)
{
    Function fn;
    IRBuilder b(fn);
    BlockId a = b.makeBlock();
    BlockId t = b.makeBlock();
    fn.setEntry(a);
    b.setBlock(a);
    Vreg c = fn.newVreg();
    b.emit(Instruction::br(t, Predicate::onReg(c, true), 10.0));
    b.emit(Instruction::br(t, Predicate::onReg(c, false), 5.0));
    b.setBlock(t);
    b.ret();

    EXPECT_EQ(branchesTo(*fn.block(a), t).size(), 2u);
    EXPECT_DOUBLE_EQ(branchFreqTo(*fn.block(a), t), 15.0);
    redirectBranches(*fn.block(a), t, a);
    EXPECT_TRUE(branchesTo(*fn.block(a), t).empty());
    scaleBranchFreqs(*fn.block(a), 0.5);
    EXPECT_DOUBLE_EQ(branchFreqTo(*fn.block(a), a), 7.5);
}

TEST(CfgUtils, CloneRegionRemapsInternalEdges)
{
    // Two-block loop: head <-> body; clone both.
    Program p = Session::frontend(
        "int main() { int s = 0; int i = 0;\n"
        "  while (i < 5) { s += i; i += 1; }\n"
        "  return s; }");
    simplifyCfg(p.fn);
    LoopInfo loops(p.fn);
    ASSERT_EQ(loops.loops().size(), 1u);
    const Loop &loop = loops.loops()[0];

    size_t before = p.fn.numBlocks();
    auto remap = cloneRegion(p.fn, loop.blocks, 0.5);
    EXPECT_EQ(p.fn.numBlocks(), before + loop.blocks.size());
    // The clone's internal edges point at clones, not originals.
    for (BlockId old_id : loop.blocks) {
        for (BlockId succ : p.fn.block(remap.at(old_id))->successors()) {
            bool is_original_loop_block =
                std::find(loop.blocks.begin(), loop.blocks.end(),
                          succ) != loop.blocks.end();
            EXPECT_FALSE(is_original_loop_block);
        }
    }
}

// ----- combineBlocks: the Fig. 2 sequence -----

TEST(Combine, SimpleSuccessorMerge)
{
    // A -> B, B unconditional: combining predicates nothing.
    Function fn;
    IRBuilder b(fn);
    BlockId a = b.makeBlock("A");
    BlockId bb = b.makeBlock("B");
    fn.setEntry(a);
    b.setBlock(a);
    Vreg x = b.constant(1);
    b.br(bb);
    b.setBlock(bb);
    Vreg y = b.add(IRBuilder::r(x), IRBuilder::imm(2));
    b.ret(IRBuilder::r(y));

    BasicBlock scratch(a, "A");
    scratch.insts = fn.block(a)->insts;
    CombineScratch combine;
    ASSERT_TRUE(combineBlocks(fn, scratch, *fn.block(bb), 1.0, combine));
    // No branch to B remains; B's code is appended unpredicated.
    EXPECT_TRUE(branchesTo(scratch, bb).empty());
    for (const auto &inst : scratch.insts)
        EXPECT_FALSE(inst.pred.valid());
    EXPECT_TRUE(scratch.hasReturn());
}

TEST(Combine, ConditionalMergePredicates)
{
    // A: br B if c else C. Merging B predicates B's instructions on c.
    Function fn;
    IRBuilder b(fn);
    BlockId a = b.makeBlock("A");
    BlockId bb = b.makeBlock("B");
    BlockId cc = b.makeBlock("C");
    fn.setEntry(a);
    b.setBlock(a);
    Vreg c = fn.newVreg();
    b.brCond(c, bb, cc);
    b.setBlock(bb);
    Vreg y = b.constant(7);
    b.ret(IRBuilder::r(y));
    b.setBlock(cc);
    b.ret(IRBuilder::imm(0));

    BasicBlock scratch(a, "A");
    scratch.insts = fn.block(a)->insts;
    CombineScratch combine;
    ASSERT_TRUE(combineBlocks(fn, scratch, *fn.block(bb), 1.0, combine));

    // The appended mov/ret are guarded by (c, true); the branch to C
    // survives under (c, false).
    bool saw_guarded_ret = false;
    for (const auto &inst : scratch.insts) {
        if (inst.op == Opcode::Ret && inst.pred.valid()) {
            EXPECT_EQ(inst.pred.reg, c);
            EXPECT_TRUE(inst.pred.onTrue);
            saw_guarded_ret = true;
        }
    }
    EXPECT_TRUE(saw_guarded_ret);
    EXPECT_EQ(branchesTo(scratch, cc).size(), 1u);
}

TEST(Combine, ComplementaryEntryIsUnpredicated)
{
    // A branches to D on both polarities (a collapsed diamond):
    // merging D needs no predication.
    Function fn;
    IRBuilder b(fn);
    BlockId a = b.makeBlock("A");
    BlockId d = b.makeBlock("D");
    fn.setEntry(a);
    b.setBlock(a);
    Vreg c = fn.newVreg();
    b.brCond(c, d, d);
    b.setBlock(d);
    b.ret(IRBuilder::imm(3));

    BasicBlock scratch(a, "A");
    scratch.insts = fn.block(a)->insts;
    CombineScratch combine;
    ASSERT_TRUE(combineBlocks(fn, scratch, *fn.block(d), 1.0, combine));
    for (const auto &inst : scratch.insts)
        EXPECT_FALSE(inst.pred.valid());
}

TEST(Combine, SnapshotsWhenPredicateRedefined)
{
    // The appended block redefines the branch condition register; the
    // merge must snapshot the entry condition first.
    Function fn;
    IRBuilder b(fn);
    BlockId a = b.makeBlock("A");
    BlockId s = b.makeBlock("S");
    BlockId t = b.makeBlock("T");
    fn.setEntry(a);
    Vreg c = fn.newVreg();
    b.setBlock(a);
    b.movTo(c, IRBuilder::imm(1));
    b.brCond(c, s, t);
    b.setBlock(s);
    b.movTo(c, IRBuilder::imm(0)); // redefines the condition!
    b.store(IRBuilder::imm(0), IRBuilder::imm(0), IRBuilder::r(c));
    b.ret(IRBuilder::imm(1));
    b.setBlock(t);
    b.ret(IRBuilder::imm(2));

    Program program;
    program.fn = fn.clone();
    auto before = observe(program);

    BasicBlock scratch(a, "A");
    scratch.insts = fn.block(a)->insts;
    CombineScratch combine;
    ASSERT_TRUE(combineBlocks(fn, scratch, *fn.block(s), 1.0, combine));
    fn.block(a)->insts = scratch.insts;
    fn.removeBlock(s);

    Program merged;
    merged.fn = std::move(fn);
    auto after = observe(merged);
    EXPECT_EQ(after, before);
}

// ----- Head duplication: CFG peel and unroll (Figs. 3 and 4) -----

TEST(HeadDuplicate, CfgPeelMatchesFig3)
{
    Program p = Session::frontend(
        "int main(int n) { int s = 0; int i = 0;\n"
        "  while (i < n) { s += i * 3; i += 1; }\n"
        "  return s; }");
    simplifyCfg(p.fn);
    auto before = runFunctional(p, {7}).returnValue;

    LoopInfo loops(p.fn);
    ASSERT_EQ(loops.loops().size(), 1u);
    size_t blocks_before = p.fn.numBlocks();
    EXPECT_EQ(cfgPeelLoop(p.fn, loops.loops()[0], 2), 2u);
    EXPECT_GT(p.fn.numBlocks(), blocks_before);
    EXPECT_TRUE(verify(p.fn).empty());

    // Semantics hold for trip counts below, at, and above the peel.
    EXPECT_EQ(runFunctional(p, {7}).returnValue, before);
    EXPECT_EQ(runFunctional(p, {0}).returnValue, 0);
    EXPECT_EQ(runFunctional(p, {1}).returnValue, 0);
    EXPECT_EQ(runFunctional(p, {2}).returnValue, 3);

    // The loop still exists, now entered through the peeled copies.
    LoopInfo after(p.fn);
    EXPECT_GE(after.loops().size(), 1u);
}

TEST(HeadDuplicate, CfgUnrollMatchesFig4)
{
    Program p = Session::frontend(
        "int acc[1];\n"
        "int main(int n) { int i = 0;\n"
        "  while (i < n) { acc[0] = acc[0] + i; i += 1; }\n"
        "  return acc[0]; }");
    simplifyCfg(p.fn);
    auto before = runFunctional(p, {10}).returnValue;

    LoopInfo loops(p.fn);
    ASSERT_EQ(loops.loops().size(), 1u);
    EXPECT_EQ(cfgUnrollLoop(p.fn, loops.loops()[0], 3), 2u);
    EXPECT_TRUE(verify(p.fn).empty());

    // Every iteration still tests its exit (while-loop unrolling), so
    // any trip count works.
    EXPECT_EQ(runFunctional(p, {10}).returnValue, before);
    for (int64_t n : {0, 1, 2, 3, 4, 5, 11}) {
        int64_t expect = n * (n - 1) / 2;
        Program copy;
        copy.fn = p.fn.clone();
        copy.memory = p.memory;
        copy.defaultArgs = {n};
        EXPECT_EQ(runFunctional(copy).returnValue, expect) << n;
    }
}

// ----- simplifyCfg -----

TEST(SimplifyCfg, MergesChainsAndFoldsConstantBranches)
{
    Program p = Session::frontend(
        "int main() {\n"
        "  int x = 1;\n"
        "  if (x) { return 5; }\n"
        "  return 6;\n"
        "}\n");
    size_t before = p.fn.numBlocks();
    simplifyCfg(p.fn);
    EXPECT_LT(p.fn.numBlocks(), before);
    EXPECT_TRUE(verify(p.fn).empty());
    EXPECT_EQ(runFunctional(p).returnValue, 5);
}

TEST(SimplifyCfg, ForwardsEmptyBlocks)
{
    Function fn;
    IRBuilder b(fn);
    BlockId a = b.makeBlock();
    BlockId hop = b.makeBlock();
    BlockId end = b.makeBlock();
    fn.setEntry(a);
    b.setBlock(a);
    Vreg c = fn.newVreg();
    b.brCond(c, hop, end);
    b.setBlock(hop);
    b.br(end);
    b.setBlock(end);
    b.ret();

    simplifyCfg(fn);
    // The hop is gone; A branches directly to end on both paths.
    EXPECT_EQ(fn.numBlocks(), 2u);
}

// ----- For-loop unrolling -----

TEST(ForLoopUnroll, UnrollsCountedLoopExactly)
{
    Program p = Session::frontend(
        "int out[1];\n"
        "int main() { int s = 0;\n"
        "  for (int i = 0; i < 37; i += 1) { s += i * i; }\n"
        "  out[0] = s; return s; }");
    ProfileData profile = prepareProgram(p, {}, false);
    auto before = observe(p);

    EXPECT_EQ(unrollForLoops(p.fn, profile), 1u); // mean 37 >= 8
    EXPECT_TRUE(verify(p.fn).empty());
    EXPECT_EQ(observe(p), before); // 37 % 4 != 0: epilogue exercised
}

TEST(ForLoopUnroll, SkipsWhileLoops)
{
    Program p = Session::frontend(
        "int data[16];\n"
        "int main() { int i = 0; int s = 0;\n"
        "  while (data[i] == 0 && i < 16) { s += 1; i += 1; }\n"
        "  return s; }");
    ProfileData profile = prepareProgram(p, {}, false);
    EXPECT_EQ(unrollForLoops(p.fn, profile), 0u); // mean 16 >= 8
}

TEST(ForLoopUnroll, SkipsLowTripLoops)
{
    Program p = Session::frontend(
        "int main() { int s = 0;\n"
        "  for (int i = 0; i < 3; i += 1) { s += i; }\n"
        "  return s; }");
    ProfileData profile = prepareProgram(p, {}, false);
    EXPECT_EQ(unrollForLoops(p.fn, profile), 0u); // mean 3 < 8
}

// ----- Block splitting (reverse if-conversion) -----

TEST(SplitBlock, SplitsOversizedAndPreservesSemantics)
{
    // Build one giant straight-line block.
    Function fn;
    IRBuilder b(fn);
    BlockId big = b.makeBlock();
    fn.setEntry(big);
    b.setBlock(big);
    Vreg acc = b.constant(0);
    for (int i = 0; i < 300; ++i) {
        Vreg next = b.add(IRBuilder::r(acc), IRBuilder::imm(i % 7));
        acc = next;
    }
    b.ret(IRBuilder::r(acc));

    Program p;
    p.fn = fn.clone();
    auto before = observe(p);

    TargetModel constraints;
    EXPECT_GT(splitBlock(fn, big, constraints), 0u);
    for (BlockId id : fn.blockIds())
        EXPECT_LE(fn.block(id)->size(), constraints.maxInsts);
    EXPECT_TRUE(verify(fn).empty());

    Program q;
    q.fn = std::move(fn);
    EXPECT_EQ(observe(q), before);
}

TEST(SplitBlock, StabilizesBranchPredicates)
{
    // A mid-block branch whose predicate register is redefined later:
    // splitting must not change which exit fires.
    Function fn;
    IRBuilder b(fn);
    BlockId big = b.makeBlock();
    BlockId one = b.makeBlock();
    BlockId two = b.makeBlock();
    fn.setEntry(big);
    b.setBlock(big);
    Vreg p = b.constant(1);
    Vreg q = b.constant(0);
    b.emit(Instruction::br(one, Predicate::onReg(p, true)));
    b.movTo(p, IRBuilder::imm(0)); // redefinition after the branch
    // Pad the block over the limit.
    Vreg acc = b.constant(0);
    for (int i = 0; i < 200; ++i)
        acc = b.add(IRBuilder::r(acc), IRBuilder::imm(1));
    // Never fires (q stays 0); exists so the block has a second exit.
    b.emit(Instruction::br(two, Predicate::onReg(q, true)));
    b.setBlock(one);
    b.ret(IRBuilder::imm(111));
    b.setBlock(two);
    b.ret(IRBuilder::imm(222));

    Program before_p;
    before_p.fn = fn.clone();
    EXPECT_EQ(observe(before_p).first, 111);

    TargetModel constraints;
    splitBlock(fn, big, constraints);
    Program after_p;
    after_p.fn = std::move(fn);
    EXPECT_EQ(observe(after_p).first, 111);
}

// ----- Output normalization -----

TEST(NormalizeOutputs, AddsNullWriteForPartialOutputs)
{
    Function fn;
    IRBuilder b(fn);
    BlockId a = b.makeBlock();
    BlockId next = b.makeBlock();
    fn.setEntry(a);
    Vreg p = fn.newVreg();
    Vreg x = fn.newVreg();
    b.setBlock(a);
    Instruction guarded =
        Instruction::unary(Opcode::Mov, x, Operand::makeImm(5));
    guarded.pred = Predicate::onReg(p, true);
    b.emit(guarded);
    b.br(next);
    b.setBlock(next);
    b.ret(IRBuilder::r(x)); // x is live out of a

    size_t before = fn.block(a)->size();
    normalizeOutputsFunction(fn);
    EXPECT_EQ(fn.block(a)->size(), before + 1);
    const Instruction &null_write = fn.block(a)->insts.back();
    EXPECT_EQ(null_write.op, Opcode::Mov);
    EXPECT_EQ(null_write.dest, x);
    EXPECT_EQ(null_write.pred.reg, p);
    EXPECT_FALSE(null_write.pred.onTrue); // fires when the write didn't
}

TEST(NormalizeOutputs, SkipsCoveredOutputs)
{
    Function fn;
    IRBuilder b(fn);
    BlockId a = b.makeBlock();
    BlockId next = b.makeBlock();
    fn.setEntry(a);
    Vreg p = fn.newVreg();
    Vreg x = fn.newVreg();
    b.setBlock(a);
    Instruction t = Instruction::unary(Opcode::Mov, x, Operand::makeImm(1));
    t.pred = Predicate::onReg(p, true);
    Instruction e = Instruction::unary(Opcode::Mov, x, Operand::makeImm(2));
    e.pred = Predicate::onReg(p, false);
    b.emit(t);
    b.emit(e);
    b.br(next);
    b.setBlock(next);
    b.ret(IRBuilder::r(x));

    size_t before = fn.block(a)->size();
    normalizeOutputsFunction(fn);
    EXPECT_EQ(fn.block(a)->size(), before); // complementary pair covers
}

} // namespace
} // namespace chf
