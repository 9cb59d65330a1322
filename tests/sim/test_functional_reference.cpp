/**
 * @file
 * runFunctional, which decodes each block into micro-ops the first
 * time it executes, against the IR-walking interpreter it replaced
 * (reference_functional.h). Every FuncSimResult field -- the return
 * value, the block and instruction counts, the final memory words and
 * hash, the per-block counts, the branch fire counts and the block
 * trace -- must match exactly, and so must profileProgram's branch
 * frequencies and trip histograms, on the 24 Table 1/2 kernels
 * (lowered, prepared, and compiled under BB and (IUPO)), the speclike
 * programs and synth64 (lowered, prepared, and compiled under (IUPO)),
 * every generator preset at seeds 1..30, a valueless ret, and the
 * block budget's throw.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hyperblock/phase_ordering.h"
#include "ir/builder.h"
#include "pipeline/session.h"
#include "reference_functional.h"
#include "sim/functional_sim.h"
#include "sim/timing_sim.h"
#include "support/diagnostics.h"
#include "workloads/generator.h"
#include "workloads/workloads.h"

namespace chf {
namespace {

void
expectSameRun(const Program &program, const std::vector<int64_t> &args,
              const std::string &where)
{
    FuncSimOptions options;
    options.recordTrace = true;
    FuncSimResult want = reference::runFunctional(program, args, options);
    FuncSimResult got = runFunctional(program, args, options);
    EXPECT_EQ(got.returnValue, want.returnValue) << where;
    EXPECT_EQ(got.blocksExecuted, want.blocksExecuted) << where;
    EXPECT_EQ(got.instsFetched, want.instsFetched) << where;
    EXPECT_EQ(got.instsExecuted, want.instsExecuted) << where;
    EXPECT_EQ(got.memory.words(), want.memory.words()) << where;
    EXPECT_EQ(got.memoryHash, want.memoryHash) << where;
    EXPECT_EQ(got.blockCounts, want.blockCounts) << where;
    EXPECT_EQ(got.branchFires, want.branchFires) << where;
    EXPECT_EQ(got.trace, want.trace) << where;
}

/** Every branch frequency and trip histogram of the two profiles. */
void
expectSameProfile(const Program &program, const std::vector<int64_t> &args,
                  const std::string &where)
{
    Program want_program = program.clone();
    Program got_program = program.clone();
    ProfileData want = reference::profileProgram(want_program, args);
    ProfileData got = profileProgram(got_program, args);
    const Function &want_fn = want_program.fn;
    const Function &got_fn = got_program.fn;
    ASSERT_EQ(got_fn.blockTableSize(), want_fn.blockTableSize()) << where;
    for (BlockId id = 0; id < want_fn.blockTableSize(); ++id) {
        EXPECT_EQ(got.trips.has(id), want.trips.has(id))
            << where << " bb" << id;
        EXPECT_EQ(got.trips.histogram(id), want.trips.histogram(id))
            << where << " bb" << id;
        const BasicBlock *want_bb = want_fn.block(id);
        if (!want_bb)
            continue;
        const BasicBlock *got_bb = got_fn.block(id);
        ASSERT_NE(got_bb, nullptr) << where << " bb" << id;
        for (size_t i = 0; i < want_bb->size(); ++i) {
            EXPECT_EQ(got_bb->insts[i].freq, want_bb->insts[i].freq)
                << where << " bb" << id << " inst " << i;
        }
    }
}

void
expectSame(const Program &program, const std::vector<int64_t> &args,
           const std::string &where)
{
    expectSameRun(program, args, where);
    expectSameProfile(program, args, where);
}

/** @p suite prepared once, then compiled under each of @p pipelines. */
void
checkSuite(const std::vector<Workload> &suite,
           const std::vector<Pipeline> &pipelines)
{
    std::vector<Program> prepared;
    for (const Workload &w : suite) {
        Program built = buildWorkload(w);
        expectSame(built, {}, w.name + " lowered");
        prepareProgram(built);
        expectSame(built, {}, w.name + " prepared");
        prepared.push_back(std::move(built));
    }
    for (Pipeline pipeline : pipelines) {
        Session session(SessionOptions().withPipeline(pipeline));
        for (const Program &program : prepared)
            session.addProgram(program.clone(), ProfileData{});
        session.compile(1);
        for (size_t unit = 0; unit < session.size(); ++unit) {
            expectSameRun(session.program(unit), {},
                          suite[unit].name + " " + pipelineName(pipeline));
        }
    }
}

TEST(FunctionalReference, TableKernels)
{
    ASSERT_EQ(microbenchmarks().size(), 24u);
    checkSuite(microbenchmarks(), {Pipeline::BB, Pipeline::IUPO_fused});
}

TEST(FunctionalReference, SpeclikeAndSynth64)
{
    std::vector<Workload> suite = speclikeBenchmarks();
    ASSERT_EQ(suite.size(), 19u);
    suite.push_back(synthFormationWorkload(64));
    checkSuite(suite, {Pipeline::IUPO_fused});
}

TEST(FunctionalReference, EveryGeneratorPreset)
{
    ASSERT_FALSE(shapeNames().empty());
    for (const std::string &name : shapeNames()) {
        GeneratorShape shape;
        ASSERT_TRUE(namedShape(name, &shape)) << name;
        for (uint64_t seed = 1; seed <= 30; ++seed) {
            GeneratedProgram g = generateTinyC(seed, shape);
            Program program = buildGenerated(g);
            expectSame(program, g.args,
                       name + " seed " + std::to_string(seed));
        }
    }
}

TEST(FunctionalReference, AbsentOperandsReadZero)
{
    // A valueless ret returns 0 even when the last register, which
    // sits just below the decoded zero slot, holds something else.
    Program program;
    IRBuilder b(program.fn);
    BlockId id = b.makeBlock();
    program.fn.setEntry(id);
    b.setBlock(id);
    b.constant(7);
    b.ret();
    EXPECT_EQ(runFunctional(program).returnValue, 0);
    EXPECT_EQ(runTiming(program).returnValue, 0);
    expectSameRun(program, {}, "valueless ret");
}

/** A block that branches to itself: it never returns. */
Program
spinProgram()
{
    Program program;
    IRBuilder b(program.fn);
    BlockId id = b.makeBlock();
    program.fn.setEntry(id);
    b.setBlock(id);
    b.br(id);
    return program;
}

std::string
budgetMessage(FuncSimResult (*run)(const Program &,
                                   const std::vector<int64_t> &,
                                   const FuncSimOptions &),
              const Program &program, uint64_t max_blocks)
{
    FuncSimOptions options;
    options.maxBlocks = max_blocks;
    options.throwOnBudget = true;
    try {
        run(program, {}, options);
    } catch (const RecoverableError &e) {
        return e.what();
    }
    return "no throw";
}

TEST(FunctionalReference, BudgetOverrunThrowsTheSameError)
{
    const Program spin = spinProgram();
    for (uint64_t max_blocks : {0u, 1u, 1000u}) {
        std::string want =
            budgetMessage(reference::runFunctional, spin, max_blocks);
        EXPECT_NE(want, "no throw");
        EXPECT_EQ(budgetMessage(runFunctional, spin, max_blocks), want)
            << max_blocks;
    }

    // A budget of exactly the blocks a run executes is enough; one
    // less throws in both.
    Program kernel = buildWorkload(microbenchmarks().front());
    const uint64_t blocks = runFunctional(kernel).blocksExecuted;
    EXPECT_EQ(budgetMessage(runFunctional, kernel, blocks), "no throw");
    EXPECT_EQ(budgetMessage(reference::runFunctional, kernel, blocks),
              "no throw");
    EXPECT_EQ(budgetMessage(runFunctional, kernel, blocks - 1),
              budgetMessage(reference::runFunctional, kernel, blocks - 1));
    EXPECT_NE(budgetMessage(runFunctional, kernel, blocks - 1), "no throw");
}

} // namespace
} // namespace chf
