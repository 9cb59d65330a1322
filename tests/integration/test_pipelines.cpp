/**
 * @file
 * End-to-end semantic preservation: every pipeline x policy must leave
 * every workload's observable behaviour (return value + final memory)
 * bit-identical to the basic-block baseline, while producing blocks
 * within the structural constraints.
 */

#include <gtest/gtest.h>

#include "hyperblock/phase_ordering.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "pipeline/session.h"
#include "sim/functional_sim.h"
#include "workloads/workloads.h"

namespace chf {
namespace {

Program
cloneProgram(const Program &program)
{
    Program copy;
    copy.fn = program.fn.clone();
    copy.memory = program.memory;
    copy.defaultArgs = program.defaultArgs;
    return copy;
}

struct PipelineCase
{
    Pipeline pipeline;
    PolicyKind policy;
};

std::string
caseName(const PipelineCase &c)
{
    return std::string(pipelineName(c.pipeline)) + "/" +
           policyKindName(c.policy);
}

class WorkloadPipelineTest
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadPipelineTest, AllPipelinesPreserveSemantics)
{
    const Workload *workload = findWorkload(GetParam());
    ASSERT_NE(workload, nullptr);

    Program base = buildWorkload(*workload);
    ProfileData profile = prepareProgram(base);
    FuncSimResult baseline = runFunctional(base);

    const PipelineCase cases[] = {
        {Pipeline::BB, PolicyKind::BreadthFirst},
        {Pipeline::UPIO, PolicyKind::BreadthFirst},
        {Pipeline::IUPO, PolicyKind::BreadthFirst},
        {Pipeline::IUP_O, PolicyKind::BreadthFirst},
        {Pipeline::IUPO_fused, PolicyKind::BreadthFirst},
        {Pipeline::IUPO_fused, PolicyKind::DepthFirst},
        {Pipeline::IUPO_fused, PolicyKind::Vliw},
        {Pipeline::IUPO_fused, PolicyKind::VliwConvergent},
    };

    for (const auto &c : cases) {
        Program compiled = cloneProgram(base);
        Session session(
            SessionOptions().withPipeline(c.pipeline).withPolicy(c.policy));
        session.addProgramRef(compiled, profile);
        session.compile();

        ASSERT_TRUE(verify(compiled.fn).empty())
            << caseName(c) << ": " << verify(compiled.fn).front();

        FuncSimResult run = runFunctional(compiled);
        EXPECT_EQ(run.returnValue, baseline.returnValue)
            << caseName(c) << " changed the return value";
        EXPECT_EQ(run.memoryHash, baseline.memoryHash)
            << caseName(c) << " changed the final memory";

        // Structural constraints, with slack for post-formation
        // insertions (fanout moves and spill reloads land after the
        // constraint check, as in the real compiler).
        TargetModel constraints;
        for (BlockId id : compiled.fn.blockIds()) {
            const BasicBlock *bb = compiled.fn.block(id);
            EXPECT_LE(bb->size(), constraints.maxInsts + 32)
                << caseName(c) << " bb" << id << " oversized";
            EXPECT_LE(bb->memoryOpCount(), constraints.maxMemOps)
                << caseName(c) << " bb" << id << " too many mem ops";
        }
    }
}

std::vector<std::string>
allWorkloadNames()
{
    std::vector<std::string> names;
    for (const auto &w : microbenchmarks())
        names.push_back(w.name);
    for (const auto &w : speclikeBenchmarks())
        names.push_back(w.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadPipelineTest,
    ::testing::ValuesIn(allWorkloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
} // namespace chf

namespace chf {
namespace {

/**
 * Strict post-compilation invariants on the full microbenchmark suite
 * under the fully convergent pipeline: every block within the hard ISA
 * limits (the backend splitter is the last line of defense), and the
 * executed-block count strictly reduced versus basic blocks.
 */
class StrictInvariants : public ::testing::TestWithParam<std::string>
{
};

TEST_P(StrictInvariants, FinalBlocksRespectIsaLimits)
{
    const Workload *workload = findWorkload(GetParam());
    ASSERT_NE(workload, nullptr);
    Program base = buildWorkload(*workload);
    ProfileData profile = prepareProgram(base);
    FuncSimResult bb_run = runFunctional(base);

    Program compiled = cloneProgram(base);
    Session session(SessionOptions().withPipeline(Pipeline::IUPO_fused));
    session.addProgramRef(compiled, profile);
    session.compile();

    TargetModel constraints;
    for (BlockId id : compiled.fn.blockIds()) {
        const BasicBlock *bb = compiled.fn.block(id);
        EXPECT_LE(bb->size(), constraints.maxInsts)
            << "bb" << id << " exceeds the hard instruction limit";
        EXPECT_LE(bb->memoryOpCount(), constraints.maxMemOps)
            << "bb" << id << " exceeds the load/store id limit";
    }

    FuncSimResult run = runFunctional(compiled);
    EXPECT_LT(run.blocksExecuted, bb_run.blocksExecuted)
        << "formation failed to reduce executed blocks";
}

std::vector<std::string>
microNames()
{
    std::vector<std::string> names;
    for (const auto &w : microbenchmarks())
        names.push_back(w.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(Micro, StrictInvariants,
                         ::testing::ValuesIn(microNames()),
                         [](const auto &info) { return info.param; });

} // namespace
} // namespace chf
