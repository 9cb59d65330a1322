/**
 * @file
 * Tests for the extension features: the TRIPS-style assembly writer,
 * the block-quality report, two-way block splitting, and basic-block
 * splitting inside the merge engine (paper §9).
 */

#include <gtest/gtest.h>

#include "backend/asm_writer.h"
#include "hyperblock/merge.h"
#include "hyperblock/phase_ordering.h"
#include "ir/builder.h"
#include "ir/verifier.h"
#include "pipeline/session.h"
#include "report/block_report.h"
#include "sim/functional_sim.h"
#include "transform/reverse_if_convert.h"
#include "workloads/workloads.h"

namespace chf {
namespace {

// ----- Assembly writer -----

TEST(AsmWriter, TargetFormShape)
{
    Program p = Session::frontend(
        "int g[4];\n"
        "int main(int x) {\n"
        "  int y = x + 1;\n"
        "  g[0] = y * 2;\n"
        "  return y;\n"
        "}\n");
    prepareProgram(p);
    std::string text = writeFunctionAsm(p.fn);

    EXPECT_NE(text.find(".bbegin"), std::string::npos);
    EXPECT_NE(text.find(".bend"), std::string::npos);
    // The argument arrives through a register-file read.
    EXPECT_NE(text.find("read"), std::string::npos);
    // Producers name consumers (target form).
    EXPECT_NE(text.find("> N["), std::string::npos);
    // Immediate forms use the -i mnemonics.
    EXPECT_NE(text.find("addi"), std::string::npos);
}

TEST(AsmWriter, BranchesAndPredicates)
{
    Program p = Session::frontend(
        "int main(int x) {\n"
        "  if (x > 0) { return 1; }\n"
        "  return 2;\n"
        "}\n");
    prepareProgram(p);
    std::string text = writeFunctionAsm(p.fn);
    // Predicated branch mnemonics appear with polarity suffixes.
    bool has_polarity =
        text.find("bro_t") != std::string::npos ||
        text.find("bro_f") != std::string::npos ||
        text.find("ret_t") != std::string::npos ||
        text.find("ret_f") != std::string::npos;
    EXPECT_TRUE(has_polarity) << text;
    // Predicate operands are delivered to the pred slot.
    EXPECT_NE(text.find(",pred]"), std::string::npos);
}

TEST(AsmWriter, LiveOutBecomesWrite)
{
    Function fn;
    IRBuilder b(fn);
    BlockId a = b.makeBlock();
    BlockId c = b.makeBlock();
    fn.setEntry(a);
    Vreg x = fn.newVreg();
    b.setBlock(a);
    b.movTo(x, IRBuilder::imm(5));
    b.br(c);
    b.setBlock(c);
    b.ret(IRBuilder::r(x));

    std::string text = writeBlockAsm(fn, *fn.block(a));
    EXPECT_NE(text.find("write $g"), std::string::npos) << text;
    EXPECT_NE(text.find("> W[0]"), std::string::npos) << text;
}

// ----- Block report -----

TEST(BlockReport, MeasuresUtilization)
{
    Program p = Session::frontend(
        "int main() {\n"
        "  int s = 0;\n"
        "  for (int i = 0; i < 50; i += 1) { s += i; }\n"
        "  return s;\n"
        "}\n");
    ProfileData profile = prepareProgram(p);
    TargetModel constraints;

    FuncSimResult before_run = runFunctional(p);
    BlockReport before =
        analyzeBlocks(p.fn, constraints, &before_run);

    Session session;
    session.addProgramRef(p, profile);
    session.compile();
    FuncSimResult after_run = runFunctional(p);
    BlockReport after = analyzeBlocks(p.fn, constraints, &after_run);

    // Hyperblock formation densifies blocks.
    EXPECT_GT(after.staticUtilization, before.staticUtilization);
    EXPECT_GT(after.dynamicUtilization, before.dynamicUtilization);
    EXPECT_GT(after.meanBlockSize, before.meanBlockSize);
    EXPECT_GT(after.predicatedFraction, 0.0);
    EXPECT_LE(after.usefulFetchFraction, 1.0);
    EXPECT_FALSE(toString(after, constraints).empty());
}

TEST(BlockReport, HistogramSumsToBlockCount)
{
    Program p = Session::frontend("int main() { return 7; }");
    TargetModel constraints;
    BlockReport report = analyzeBlocks(p.fn, constraints);
    size_t total = 0;
    for (size_t n : report.sizeHistogram)
        total += n;
    EXPECT_EQ(total, report.blocks);
}

// ----- splitBlockAt -----

TEST(SplitBlockAt, TwoWaySplitPreservesSemantics)
{
    Function fn;
    IRBuilder b(fn);
    BlockId big = b.makeBlock();
    fn.setEntry(big);
    b.setBlock(big);
    Vreg acc = b.constant(0);
    for (int i = 1; i <= 20; ++i)
        acc = b.add(IRBuilder::r(acc), IRBuilder::imm(i));
    b.ret(IRBuilder::r(acc));

    Program before;
    before.fn = fn.clone();
    int64_t want = runFunctional(before).returnValue;

    BlockId rest = splitBlockAt(fn, big, 8);
    ASSERT_NE(rest, kNoBlock);
    EXPECT_EQ(fn.block(big)->size(), 9u); // 8 insts + jump
    EXPECT_TRUE(verify(fn).empty());

    Program after;
    after.fn = std::move(fn);
    EXPECT_EQ(runFunctional(after).returnValue, want);
}

TEST(SplitBlockAt, RefusesTinyBlocks)
{
    Program p = Session::frontend("int main() { return 1; }");
    BlockId entry = p.fn.entry();
    EXPECT_EQ(splitBlockAt(p.fn, entry, 1), kNoBlock);
}

/**
 * Splitting sinks every branch to the final part. A ret's VALUE
 * operand must be snapshotted like its predicate: after register
 * allocation one register carries different values at different
 * points of a block, so `ret vR <p>; ...; mov vR = other` returns the
 * wrong value if the sunk ret reads vR at its new position. Shrunk
 * from a differential-fuzz reproducer (seed 392, switchy).
 */
TEST(SplitOversizedBlocks, SinkingRetPastRedefinitionKeepsItsValue)
{
    Function fn;
    IRBuilder b(fn);
    BlockId big = b.makeBlock();
    fn.setEntry(big);
    b.setBlock(big);
    Vreg v = b.constant(7);
    Vreg p = b.constant(1);
    fn.block(big)->append(
        Instruction::ret(IRBuilder::r(v), Predicate::onReg(p, true)));
    fn.block(big)->append(
        Instruction::ret(IRBuilder::imm(0),
                         Predicate::onReg(p, false)));
    b.movTo(v, IRBuilder::imm(99)); // EDGE-atomic tail redefinition
    for (int i = 0; i < 12; ++i)
        b.constant(i);

    Program before;
    before.fn = fn.clone();
    ASSERT_EQ(runFunctional(before).returnValue, 7);

    TargetModel tight;
    tight.maxInsts = 8;
    ASSERT_GT(splitOversizedBlocks(fn, tight), 0u);
    EXPECT_TRUE(verify(fn).empty());

    Program after;
    after.fn = std::move(fn);
    EXPECT_EQ(runFunctional(after).returnValue, 7);
}

// ----- Basic-block splitting in the merge engine -----

TEST(BlockSplittingMerge, MergesFirstPieceOfHugeSuccessor)
{
    // A tiny block followed by a ~200-instruction successor: without
    // splitting the merge fails; with splitting the first piece merges.
    Function fn;
    IRBuilder b(fn);
    BlockId a = b.makeBlock("A");
    BlockId big = b.makeBlock("BIG");
    fn.setEntry(a);
    // The chain starts from an argument so it cannot constant-fold.
    Vreg x = fn.newVreg();
    fn.argRegs.push_back(x);
    b.setBlock(a);
    Vreg y = b.add(IRBuilder::r(x), IRBuilder::imm(1));
    b.br(big);
    b.setBlock(big);
    Vreg acc = y;
    for (int i = 0; i < 200; ++i)
        acc = b.add(IRBuilder::r(acc), IRBuilder::r(x));
    b.ret(IRBuilder::r(acc));

    Program oracle;
    oracle.fn = fn.clone();
    oracle.defaultArgs = {3};
    int64_t want = runFunctional(oracle).returnValue;

    {
        Function plain = fn.clone();
        MergeOptions options;
        options.optimizeDuringMerge = false;
        MergeEngine engine(plain, options);
        EXPECT_FALSE(engine.tryMerge(a, big).success);
    }

    MergeOptions options;
    options.optimizeDuringMerge = false;
    options.enableBlockSplitting = true;
    MergeEngine engine(fn, options);
    MergeOutcome outcome = engine.tryMerge(a, big);
    ASSERT_TRUE(outcome.success);
    EXPECT_GT(engine.stats().get("blocksSplitForMerge"), 0);
    EXPECT_GT(fn.block(a)->size(), 10u); // absorbed a real piece
    EXPECT_TRUE(verify(fn).empty());

    Program after;
    after.fn = std::move(fn);
    after.defaultArgs = {3};
    EXPECT_EQ(runFunctional(after).returnValue, want);
}

TEST(BlockSplittingMerge, FullPipelineStaysCorrect)
{
    Program p = Session::frontend(
        "int d[64];\n"
        "int main() {\n"
        "  int s = 0;\n"
        "  for (int i = 0; i < 64; i += 1) { d[i] = i * 3 % 17; }\n"
        "  for (int i = 0; i < 64; i += 1) {\n"
        "    s += d[i] * d[(i + 1) % 64];\n"
        "    s = s % 100003;\n"
        "  }\n"
        "  return s;\n"
        "}\n");
    ProfileData profile = prepareProgram(p);
    FuncSimResult oracle = runFunctional(p);

    Program split;
    split.fn = p.fn.clone();
    split.memory = p.memory;
    split.defaultArgs = p.defaultArgs;
    Session session(SessionOptions().withBlockSplitting(true));
    session.addProgramRef(split, profile);
    session.compile();

    FuncSimResult run = runFunctional(split);
    EXPECT_EQ(run.returnValue, oracle.returnValue);
    EXPECT_EQ(run.memoryHash, oracle.memoryHash);
}

} // namespace
} // namespace chf

namespace chf {
namespace {

TEST(AsmWriter, EmitsEveryWorkloadWithoutFault)
{
    // The writer must handle every shape formation produces: merged
    // predicated blocks, multi-exit blocks, null writes, fanout moves.
    for (const char *name : {"sieve", "bzip2_3", "dhry", "gzip_2"}) {
        Program p = buildWorkload(*findWorkload(name));
        ProfileData profile = prepareProgram(p);
        Session session;
        session.addProgramRef(p, profile);
        session.compile();
        std::string text = writeFunctionAsm(p.fn);
        EXPECT_GT(text.size(), 200u) << name;
        // Block count in the banner matches the function.
        EXPECT_NE(text.find(std::to_string(p.fn.numBlocks()) +
                            " blocks"),
                  std::string::npos)
            << name;
    }
}

} // namespace
} // namespace chf
