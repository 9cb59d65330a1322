/**
 * @file
 * Tests for the transactional pipeline: FunctionCheckpoint restores
 * bit-identical IR, runGuarded rolls back failed phases, and a
 * degraded end-to-end compile still produces correct code.
 */

#include <gtest/gtest.h>

#include "hyperblock/convergent.h"
#include "hyperblock/phase_ordering.h"
#include "hyperblock/policy.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "pipeline/checkpoint.h"
#include "pipeline/pass_guard.h"
#include "pipeline/session.h"
#include "sim/functional_sim.h"
#include "support/fault_inject.h"

namespace chf {
namespace {

const char *const kSource =
    "int mem[16];\n"
    "int main(int a0) {\n"
    "  int sum = 0;\n"
    "  for (int i = 0; i < 8; i += 1) {\n"
    "    if (i % 2 == 0) { sum += i * a0; } else { sum -= i; }\n"
    "    mem[i + 16] = sum;\n"
    "  }\n"
    "  return sum;\n"
    "}\n";

Program
makeProgram()
{
    Program program = Session::frontend(kSource);
    program.defaultArgs = {3};
    return program;
}

/** Smash the function so the verifier must reject it. */
void
corrupt(Function &fn)
{
    std::vector<BlockId> ids = fn.blockIds();
    ASSERT_FALSE(ids.empty());
    fn.block(ids.front())->insts.clear();
}

TEST(FunctionCheckpoint, RestoreIsBitIdentical)
{
    Program program = makeProgram();
    std::string before = toString(program.fn);

    FunctionCheckpoint checkpoint(program.fn);
    corrupt(program.fn);
    ASSERT_NE(toString(program.fn), before);
    ASSERT_FALSE(verify(program.fn).empty());

    checkpoint.restore(program.fn);
    EXPECT_EQ(toString(program.fn), before);
    EXPECT_TRUE(verify(program.fn).empty());
}

TEST(FunctionCheckpoint, RestorableMultipleTimes)
{
    Program program = makeProgram();
    std::string before = toString(program.fn);
    FunctionCheckpoint checkpoint(program.fn);

    for (int round = 0; round < 3; ++round) {
        corrupt(program.fn);
        checkpoint.restore(program.fn);
        ASSERT_EQ(toString(program.fn), before) << "round " << round;
    }
}

TEST(RunGuarded, SuccessLeavesChangesAndNoDiagnostics)
{
    Program program = makeProgram();
    DiagnosticEngine diags;
    bool ran = false;
    bool ok = runGuarded(program.fn, "test-phase", diags, [&] {
        ran = true;
    });
    EXPECT_TRUE(ok);
    EXPECT_TRUE(ran);
    EXPECT_TRUE(diags.empty());
}

TEST(RunGuarded, VerifierFailureRollsBack)
{
    Program program = makeProgram();
    std::string before = toString(program.fn);
    DiagnosticEngine diags;

    bool ok = runGuarded(program.fn, "test-phase", diags,
                         [&] { corrupt(program.fn); });
    EXPECT_FALSE(ok);
    EXPECT_EQ(toString(program.fn), before)
        << "rollback must be bit-identical";
    ASSERT_GE(diags.errorCount(), 1u);
    EXPECT_TRUE(diags.hasPhase("test-phase"));
    EXPECT_EQ(diags.count(Severity::Note), 1u)
        << "rollback must be recorded as a note";
}

TEST(RunGuarded, RecoverableErrorRollsBack)
{
    Program program = makeProgram();
    std::string before = toString(program.fn);
    DiagnosticEngine diags;

    bool ok = runGuarded(program.fn, "test-phase", diags, [&] {
        corrupt(program.fn); // damage first, then bail out
        throw RecoverableError(
            Diagnostic::error("test-phase", "synthetic failure"));
    });
    EXPECT_FALSE(ok);
    EXPECT_EQ(toString(program.fn), before);
    ASSERT_GE(diags.errorCount(), 1u);
    EXPECT_NE(diags.toString().find("synthetic failure"),
              std::string::npos);
}

class GuardedPipeline : public ::testing::Test
{
  protected:
    void TearDown() override { FaultInjector::instance().disarm(); }
};

TEST_F(GuardedPipeline, PerSeedRollbackKeepsOtherSeeds)
{
    Program program = makeProgram();
    prepareProgram(program);
    FuncSimResult oracle = runFunctional(program);
    size_t blocks_before = program.fn.numBlocks();

    // Fail the second seed expansion; the others must still merge.
    FaultSpec spec;
    spec.phase = "formation-seed";
    spec.occurrence = 1;
    spec.kind = FaultSpec::Kind::CorruptIr;
    FaultInjector::instance().arm(spec);

    DiagnosticEngine diags;
    BreadthFirstPolicy policy;
    FormationOptions options;
    options.keepGoing = true;
    options.diags = &diags;
    formHyperblocks(program.fn, policy, options);

    EXPECT_EQ(FaultInjector::instance().firedCount(), 1u);
    EXPECT_TRUE(diags.hasPhase("formation-seed"));
    EXPECT_TRUE(verify(program.fn).empty());
    EXPECT_LT(program.fn.numBlocks(), blocks_before)
        << "surviving seeds must still have merged";

    FuncSimResult run = runFunctional(program);
    EXPECT_EQ(run.returnValue, oracle.returnValue);
    EXPECT_EQ(run.memoryHash, oracle.memoryHash);
}

TEST_F(GuardedPipeline, DegradedCompileMatchesOracle)
{
    Program program = makeProgram();
    ProfileData profile = prepareProgram(program);
    FuncSimResult oracle = runFunctional(program);

    FaultSpec spec;
    spec.phase = "formation";
    spec.kind = FaultSpec::Kind::CorruptIr;
    FaultInjector::instance().arm(spec);

    Session session(SessionOptions()
                        .withPipeline(Pipeline::IUPO_fused)
                        .withKeepGoing(true));
    session.addProgramRef(program, profile);
    SessionResult result = session.compile();
    const FunctionResult &compiled = result.functions[0];

    EXPECT_EQ(FaultInjector::instance().firedCount(), 1u);
    EXPECT_TRUE(compiled.degraded());
    ASSERT_EQ(compiled.failedPhases.size(), 1u);
    EXPECT_EQ(compiled.failedPhases[0], "formation");
    EXPECT_TRUE(result.diagnostics.hasPhase("formation"));

    // The degraded program (formation rolled back, backend still run)
    // must stay verifier-clean and behave exactly like the reference.
    EXPECT_TRUE(verify(program.fn).empty());
    FuncSimResult run = runFunctional(program);
    EXPECT_EQ(run.returnValue, oracle.returnValue);
    EXPECT_EQ(run.memoryHash, oracle.memoryHash);
}

TEST_F(GuardedPipeline, CleanKeepGoingRunMatchesStrictRun)
{
    Program strict = makeProgram();
    ProfileData profile = prepareProgram(strict);
    Program guarded;
    guarded.fn = strict.fn.clone();
    guarded.memory = strict.memory;
    guarded.defaultArgs = strict.defaultArgs;

    Session strict_session(
        SessionOptions().withPipeline(Pipeline::IUPO_fused));
    strict_session.addProgramRef(strict, profile);
    strict_session.compile();

    Session guarded_session(SessionOptions()
                                .withPipeline(Pipeline::IUPO_fused)
                                .withKeepGoing(true));
    guarded_session.addProgramRef(guarded, profile);
    SessionResult result = guarded_session.compile();

    EXPECT_FALSE(result.degraded());
    EXPECT_TRUE(result.diagnostics.empty());
    EXPECT_EQ(toString(guarded.fn), toString(strict.fn))
        << "with no faults, keep-going must compile identically";
}

} // namespace
} // namespace chf
