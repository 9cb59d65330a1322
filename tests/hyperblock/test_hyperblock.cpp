/**
 * @file
 * Hyperblock core tests: constraints and the size estimator, the merge
 * engine (classification, scratch-space rejection, pristine unroll
 * bodies), policies, and the ExpandBlock driver.
 */

#include <gtest/gtest.h>

#include "analysis/liveness.h"
#include "hyperblock/constraints.h"
#include "hyperblock/convergent.h"
#include "hyperblock/merge.h"
#include "hyperblock/phase_ordering.h"
#include "hyperblock/vliw_policy.h"
#include "ir/builder.h"
#include "ir/verifier.h"
#include "pipeline/session.h"
#include "sim/functional_sim.h"
#include "transform/cfg_utils.h"
#include "transform/simplify_cfg.h"

namespace chf {
namespace {

// ----- Constraints / estimator -----

TEST(Constraints, DerivedLimits)
{
    TargetModel c;
    EXPECT_EQ(c.maxRegReads(), 32u);
    EXPECT_EQ(c.maxRegWrites(), 32u);
}

TEST(Constraints, CountsMemOpsAndRegisters)
{
    Function fn;
    IRBuilder b(fn);
    BlockId id = b.makeBlock();
    fn.setEntry(id);
    Vreg in1 = fn.newVreg(), in2 = fn.newVreg();
    b.setBlock(id);
    Vreg v = b.load(IRBuilder::r(in1), IRBuilder::imm(0));
    b.store(IRBuilder::r(in2), IRBuilder::imm(0), IRBuilder::r(v));
    Vreg out = b.add(IRBuilder::r(in1), IRBuilder::r(in2));
    b.ret(IRBuilder::r(out));

    TargetModel constraints;
    BitVector live_out(fn.numVregs());
    live_out.set(out);
    BlockResources res =
        analyzeBlock(fn, *fn.block(id), live_out, constraints);
    EXPECT_EQ(res.memOps, 2u);
    EXPECT_EQ(res.regReads, 2u);  // in1, in2 upward exposed
    EXPECT_EQ(res.regWrites, 1u); // out only
    EXPECT_TRUE(checkBlockLegal(res, constraints).empty());
}

TEST(Constraints, PredictsFanout)
{
    Function fn;
    IRBuilder b(fn);
    BlockId id = b.makeBlock();
    fn.setEntry(id);
    b.setBlock(id);
    Vreg v = b.constant(5);
    // Four operand slots read v: two beyond the two direct targets.
    Vreg sink = b.add(IRBuilder::r(v), IRBuilder::r(v));
    sink = b.add(IRBuilder::r(v), IRBuilder::r(sink));
    sink = b.add(IRBuilder::r(v), IRBuilder::r(sink));
    b.ret(IRBuilder::r(sink));

    TargetModel constraints;
    BitVector live_out(fn.numVregs());
    BlockResources res =
        analyzeBlock(fn, *fn.block(id), live_out, constraints);
    EXPECT_EQ(res.fanoutMoves, 2u); // 4 uses - 2 targets
}

TEST(Constraints, RejectsOversize)
{
    BlockResources res;
    res.insts = 120;
    res.fanoutMoves = 20;
    TargetModel constraints;
    EXPECT_FALSE(checkBlockLegal(res, constraints).empty());
    res.fanoutMoves = 0;
    EXPECT_TRUE(checkBlockLegal(res, constraints).empty());
    EXPECT_FALSE(checkBlockLegal(res, constraints, 16).empty());
}

TEST(Constraints, RejectsTooManyMemOps)
{
    BlockResources res;
    res.insts = 40;
    res.memOps = 33;
    TargetModel constraints;
    std::string why = checkBlockLegal(res, constraints);
    EXPECT_NE(why.find("memory ops"), std::string::npos);
}

// ----- Merge engine -----

/** Straight-line A -> B -> ret, where B has only A as predecessor. */
struct ChainFixture
{
    Function fn;
    BlockId a, b, c;

    ChainFixture()
    {
        IRBuilder builder(fn);
        a = builder.makeBlock("A");
        b = builder.makeBlock("B");
        c = builder.makeBlock("C");
        fn.setEntry(a);
        builder.setBlock(a);
        Vreg x = builder.constant(4);
        builder.br(b);
        builder.setBlock(b);
        Vreg y = builder.add(IRBuilder::r(x), IRBuilder::imm(1));
        builder.br(c);
        builder.setBlock(c);
        builder.ret(IRBuilder::r(y));
    }
};

TEST(MergeEngine, SimpleMergeRemovesSuccessor)
{
    ChainFixture f;
    MergeOptions options;
    MergeEngine engine(f.fn, options);

    MergeOutcome outcome = engine.tryMerge(f.a, f.b);
    ASSERT_TRUE(outcome.success);
    EXPECT_EQ(outcome.kind, MergeKind::Simple);
    EXPECT_EQ(f.fn.block(f.b), nullptr); // B removed
    EXPECT_EQ(engine.stats().get("blocksMerged"), 1);
    EXPECT_TRUE(verify(f.fn).empty());
}

TEST(MergeEngine, RefusesEntryBlock)
{
    ChainFixture f;
    // Make the entry a successor of C so the merge would be attempted.
    MergeOptions options;
    MergeEngine engine(f.fn, options);
    std::string why;
    EXPECT_FALSE(engine.legalMerge(f.b, f.a, &why));
    EXPECT_NE(why.find("entry"), std::string::npos);
}

TEST(MergeEngine, RefusesNonSuccessor)
{
    ChainFixture f;
    MergeOptions options;
    MergeEngine engine(f.fn, options);
    MergeOutcome outcome = engine.tryMerge(f.a, f.c);
    EXPECT_FALSE(outcome.success);
}

TEST(MergeEngine, ClassifiesTailDuplication)
{
    // Diamond: A -> (B | C) -> D; after merging B, D still has C as a
    // predecessor, so merging D is a tail duplication and D survives.
    Program p = Session::frontend(
        "int g[1];\n"
        "int main(int x) {\n"
        "  int v = 0;\n"
        "  if (x > 0) { v = x * 2; } else { v = 7 - x; }\n"
        "  g[0] = v;\n"
        "  return v;\n"
        "}\n");
    simplifyCfg(p.fn);
    auto before_pos = runFunctional(p, {5});
    auto before_neg = runFunctional(p, {-5});

    PredecessorMap preds = p.fn.predecessors();
    BlockId join = kNoBlock;
    for (BlockId id : p.fn.blockIds()) {
        if (preds[id].size() == 2)
            join = id;
    }
    ASSERT_NE(join, kNoBlock);
    BlockId arm = preds[join][0];

    MergeOptions options;
    MergeEngine engine(p.fn, options);
    MergeOutcome outcome = engine.tryMerge(arm, join);
    ASSERT_TRUE(outcome.success);
    EXPECT_EQ(outcome.kind, MergeKind::TailDup);
    EXPECT_NE(p.fn.block(join), nullptr); // join survives
    EXPECT_EQ(engine.stats().get("tailDuplicated"), 1);

    EXPECT_EQ(runFunctional(p, {5}).returnValue,
              before_pos.returnValue);
    EXPECT_EQ(runFunctional(p, {-5}).returnValue,
              before_neg.returnValue);
}

/** Self-loop block counting to 10, then returns the sum. */
struct SelfLoopFixture
{
    Function fn;
    BlockId entry, body, exit;
    Vreg i, sum;

    SelfLoopFixture()
    {
        IRBuilder b(fn);
        entry = b.makeBlock("entry");
        body = b.makeBlock("body");
        exit = b.makeBlock("exit");
        fn.setEntry(entry);
        i = fn.newVreg();
        sum = fn.newVreg();
        b.setBlock(entry);
        b.movTo(i, IRBuilder::imm(0));
        b.movTo(sum, IRBuilder::imm(0));
        b.br(body);
        b.setBlock(body);
        b.movTo(sum, IRBuilder::r(fn.newVreg())); // placeholder rewritten
        fn.block(body)->insts.clear();
        Vreg s2 = fn.newVreg();
        b.emit(Instruction::binary(Opcode::Add, s2,
                                   Operand::makeReg(sum),
                                   Operand::makeReg(i)));
        b.emit(Instruction::unary(Opcode::Mov, sum,
                                  Operand::makeReg(s2)));
        Vreg i2 = fn.newVreg();
        b.emit(Instruction::binary(Opcode::Add, i2, Operand::makeReg(i),
                                   Operand::makeImm(1)));
        b.emit(Instruction::unary(Opcode::Mov, i,
                                  Operand::makeReg(i2)));
        Vreg t = fn.newVreg();
        b.emit(Instruction::binary(Opcode::Tlt, t, Operand::makeReg(i),
                                   Operand::makeImm(10)));
        b.brCond(t, body, exit);
        b.setBlock(exit);
        b.ret(IRBuilder::r(sum));
    }
};

TEST(MergeEngine, UnrollAppendsPristineBody)
{
    SelfLoopFixture f;
    Program p;
    p.fn = f.fn.clone();
    EXPECT_EQ(runFunctional(p).returnValue, 45);

    MergeOptions options;
    MergeEngine engine(f.fn, options);
    size_t size_before = f.fn.block(f.body)->size();

    MergeOutcome first = engine.tryMerge(f.body, f.body);
    ASSERT_TRUE(first.success);
    EXPECT_EQ(first.kind, MergeKind::Unroll);
    size_t size_once = f.fn.block(f.body)->size();
    EXPECT_GT(size_once, size_before);

    MergeOutcome second = engine.tryMerge(f.body, f.body);
    ASSERT_TRUE(second.success);
    // Pristine-body unrolling appends one iteration at a time, not a
    // power-of-two doubling of the already-merged block.
    size_t size_twice = f.fn.block(f.body)->size();
    EXPECT_LT(size_twice - size_once, size_once);
    EXPECT_EQ(engine.stats().get("unrolledIterations"), 2);

    Program q;
    q.fn = f.fn.clone();
    EXPECT_EQ(runFunctional(q).returnValue, 45);
    EXPECT_TRUE(verify(f.fn).empty());
}

TEST(MergeEngine, UnrollStopsAtConstraints)
{
    SelfLoopFixture f;
    MergeOptions options;
    options.target.maxInsts = 32;
    MergeEngine engine(f.fn, options);

    size_t unrolls = 0;
    while (engine.tryMerge(f.body, f.body).success)
        ++unrolls;
    EXPECT_GT(unrolls, 0u);
    EXPECT_LE(f.fn.block(f.body)->size(), 32u);
}

TEST(MergeEngine, HeadDuplicationCanBeDisabled)
{
    SelfLoopFixture f;
    MergeOptions options;
    options.enableHeadDuplication = false;
    MergeEngine engine(f.fn, options);
    MergeOutcome outcome = engine.tryMerge(f.body, f.body);
    EXPECT_FALSE(outcome.success);
    EXPECT_NE(outcome.reason.find("head duplication"),
              std::string::npos);
}

TEST(MergeEngine, PeelClassification)
{
    SelfLoopFixture f;
    MergeOptions options;
    MergeEngine engine(f.fn, options);
    // entry -> body where body is a loop header: peeling.
    MergeOutcome outcome = engine.tryMerge(f.entry, f.body);
    ASSERT_TRUE(outcome.success);
    EXPECT_EQ(outcome.kind, MergeKind::Peel);
    EXPECT_NE(f.fn.block(f.body), nullptr); // loop survives

    Program p;
    p.fn = f.fn.clone();
    EXPECT_EQ(runFunctional(p).returnValue, 45);
}

// ----- Policies -----

TEST(Policies, BreadthFirstTakesDiscoveryOrder)
{
    BreadthFirstPolicy policy;
    Function dummy;
    std::vector<MergeCandidate> candidates(2);
    candidates[0].block = 5;
    candidates[0].discoveryOrder = 1;
    candidates[0].entryFreq = 100;
    candidates[0].candFreq = 100;
    candidates[1].block = 6;
    candidates[1].discoveryOrder = 0;
    candidates[1].entryFreq = 1;
    candidates[1].candFreq = 1;
    EXPECT_EQ(policy.select(dummy, 0, candidates), 1);
}

TEST(Policies, BreadthFirstLimitsTailDuplication)
{
    BreadthFirstPolicy policy(/*tail_dup_limit=*/16);
    Function dummy;
    std::vector<MergeCandidate> candidates(1);
    candidates[0].block = 5;
    candidates[0].needsDup = true;
    candidates[0].blockSize = 64;
    candidates[0].entryFreq = 10;
    candidates[0].candFreq = 100; // we own only 10%
    EXPECT_EQ(policy.select(dummy, 0, candidates), -1);

    // Owning nearly all executions waives the size limit.
    candidates[0].entryFreq = 95;
    EXPECT_EQ(policy.select(dummy, 0, candidates), 0);
}

TEST(Policies, BreadthFirstSkipsLowShareLoopExit)
{
    BreadthFirstPolicy policy;
    Function dummy;
    std::vector<MergeCandidate> candidates(1);
    candidates[0].block = 5;
    candidates[0].leavesLoop = true;
    candidates[0].entryFreq = 1;
    candidates[0].candFreq = 1;
    candidates[0].hbFreq = 100; // hot loop, cold exit
    EXPECT_EQ(policy.select(dummy, 0, candidates), -1);
    candidates[0].hbFreq = 2; // low-trip loop: exit is warm
    EXPECT_EQ(policy.select(dummy, 0, candidates), 0);
}

TEST(Policies, DepthFirstTakesHottest)
{
    DepthFirstPolicy policy;
    Function dummy;
    std::vector<MergeCandidate> candidates(3);
    for (int i = 0; i < 3; ++i) {
        candidates[i].block = static_cast<BlockId>(i);
        candidates[i].discoveryOrder = i;
    }
    candidates[0].entryFreq = 10;
    candidates[1].entryFreq = 90;
    candidates[2].entryFreq = 50;
    EXPECT_EQ(policy.select(dummy, 0, candidates), 1);
}

TEST(Policies, VliwExcludesRarePaths)
{
    // A loop body with a hot path and a rare path: the VLIW prepass
    // admits the hot path blocks and excludes the rare one.
    Program p = Session::frontend(
        "int d[512];\n"
        "int main() {\n"
        "  int s = 0;\n"
        "  for (int i = 0; i < 512; i += 1) { d[i] = i % 97; }\n"
        "  for (int i = 0; i < 512; i += 1) {\n"
        "    if (d[i] == 0) { s += d[i] * 31 + 7; }\n"
        "    else { s += 1; }\n"
        "  }\n"
        "  return s;\n"
        "}\n");
    ProfileData profile = prepareProgram(p);
    (void)profile;

    // Find the hot if-else head: the block with two successors of very
    // different frequencies.
    BlockId head = kNoBlock;
    BlockId hot = kNoBlock, cold = kNoBlock;
    for (BlockId id : p.fn.blockIds()) {
        auto succs = p.fn.block(id)->successors();
        if (succs.size() != 2)
            continue;
        double f0 = branchFreqTo(*p.fn.block(id), succs[0]);
        double f1 = branchFreqTo(*p.fn.block(id), succs[1]);
        if (f0 + f1 > 100 && (f0 > 10 * f1 || f1 > 10 * f0)) {
            head = id;
            hot = f0 > f1 ? succs[0] : succs[1];
            cold = f0 > f1 ? succs[1] : succs[0];
        }
    }
    ASSERT_NE(head, kNoBlock);

    VliwPolicy policy;
    AnalysisManager analyses(p.fn);
    policy.beginBlock(analyses, head);
    std::vector<MergeCandidate> candidates(2);
    candidates[0].block = hot;
    candidates[0].entryFreq = 100;
    candidates[1].block = cold;
    candidates[1].entryFreq = 1;
    int pick = policy.select(p.fn, head, candidates);
    ASSERT_GE(pick, 0);
    EXPECT_EQ(candidates[pick].block, hot);
}

TEST(Policies, DependenceHeightComputation)
{
    Function fn;
    IRBuilder b(fn);
    BlockId id = b.makeBlock();
    fn.setEntry(id);
    b.setBlock(id);
    Vreg x = b.constant(1);                               // 1 cycle
    Vreg y = b.mul(IRBuilder::r(x), IRBuilder::imm(3));   // +3
    Vreg z = b.add(IRBuilder::r(y), IRBuilder::imm(1));   // +1
    b.ret(IRBuilder::r(z));
    EXPECT_DOUBLE_EQ(blockDependenceHeight(*fn.block(id)), 6.0);
}

// ----- ExpandBlock / formHyperblocks -----

TEST(Formation, ExpandBlockConverges)
{
    Program p = Session::frontend(
        "int main() {\n"
        "  int s = 0;\n"
        "  for (int i = 0; i < 100; i += 1) {\n"
        "    if (i % 3 == 0) { s += i; } else { s += 2; }\n"
        "  }\n"
        "  return s;\n"
        "}\n");
    ProfileData profile = prepareProgram(p);
    auto before = runFunctional(p);

    BreadthFirstPolicy policy;
    FormationOptions options;
    FormationResult result = formHyperblocks(p.fn, policy, options);
    EXPECT_GT(result.stats.get("blocksMerged"), 0);
    EXPECT_TRUE(verify(p.fn).empty());

    auto after = runFunctional(p);
    EXPECT_EQ(after.returnValue, before.returnValue);
    EXPECT_LT(after.blocksExecuted, before.blocksExecuted);
}

TEST(Formation, RespectsMaxMergeBudget)
{
    Program p = Session::frontend(
        "int main() {\n"
        "  int s = 0;\n"
        "  for (int i = 0; i < 50; i += 1) { s += i % 5; }\n"
        "  return s;\n"
        "}\n");
    ProfileData profile = prepareProgram(p);
    (void)profile;

    BreadthFirstPolicy policy;
    FormationOptions options;
    options.maxMergesPerBlock = 1;
    FormationResult result = formHyperblocks(p.fn, policy, options);
    // Each seed performed at most one merge.
    EXPECT_LE(result.stats.get("blocksMerged"),
              static_cast<int64_t>(p.fn.numBlocks() + 4));
}

} // namespace
} // namespace chf
