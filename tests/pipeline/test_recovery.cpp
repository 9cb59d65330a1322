/**
 * @file
 * Tests for the phase runner: keep-going runPhase rolls failed phases
 * back bit-identically, a degraded end-to-end compile still produces
 * correct code, and a clean keep-going compile is byte-identical to
 * the strict one.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "backend/asm_writer.h"
#include "hyperblock/convergent.h"
#include "hyperblock/phase_ordering.h"
#include "hyperblock/policy.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "pipeline/pass_guard.h"
#include "pipeline/session.h"
#include "sim/functional_sim.h"
#include "support/fault_inject.h"
#include "workloads/generator.h"
#include "workloads/workloads.h"

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

TEST(RunGuarded, SuccessLeavesChangesAndNoDiagnostics)
{
    Program program = makeProgram();
    DiagnosticEngine diags;
    bool ran = false;
    bool ok = runPhase(program.fn, "test-phase", &diags, [&] {
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

    bool ok = runPhase(program.fn, "test-phase", &diags,
                       [&] { corrupt(program.fn); });
    EXPECT_FALSE(ok);
    EXPECT_EQ(toString(program.fn), before)
        << "rollback must be bit-identical";
    ASSERT_GE(diags.count(Severity::Error), 1u);
    EXPECT_TRUE(diags.hasPhase("test-phase"));
    EXPECT_EQ(diags.count(Severity::Note), 1u)
        << "rollback must be recorded as a note";
}

TEST(RunGuarded, RecoverableErrorRollsBack)
{
    Program program = makeProgram();
    std::string before = toString(program.fn);
    DiagnosticEngine diags;

    bool ok = runPhase(program.fn, "test-phase", &diags, [&] {
        corrupt(program.fn); // damage first, then bail out
        throw RecoverableError(
            Diagnostic::error("test-phase", "synthetic failure"));
    });
    EXPECT_FALSE(ok);
    EXPECT_EQ(toString(program.fn), before);
    ASSERT_GE(diags.count(Severity::Error), 1u);
    EXPECT_NE(diags.toString().find("synthetic failure"),
              std::string::npos);
}

TEST(GuardedPipeline, PerSeedRollbackKeepsOtherSeeds)
{
    Program program = makeProgram();
    prepareProgram(program);
    FuncSimResult oracle = runFunctional(program);
    size_t blocks_before = program.fn.numBlocks();

    // Fail the first seed expansion; the others must still merge.
    FaultSpec spec;
    spec.phase = "formation-seed";
    spec.kind = FaultSpec::Kind::CorruptIr;
    FaultScope scope(&spec);

    DiagnosticEngine diags;
    BreadthFirstPolicy policy;
    FormationOptions options;
    options.diags = &diags;
    formHyperblocks(program.fn, policy, options);

    EXPECT_TRUE(scope.fired());
    EXPECT_TRUE(diags.hasPhase("formation-seed"));
    EXPECT_TRUE(verify(program.fn).empty());
    EXPECT_LT(program.fn.numBlocks(), blocks_before)
        << "surviving seeds must still have merged";

    FuncSimResult run = runFunctional(program);
    EXPECT_EQ(run.returnValue, oracle.returnValue);
    EXPECT_EQ(run.memoryHash, oracle.memoryHash);
}

TEST(GuardedPipeline, DegradedCompileMatchesOracle)
{
    Program program = makeProgram();
    ProfileData profile = prepareProgram(program);
    FuncSimResult oracle = runFunctional(program);

    FaultSpec spec;
    spec.phase = "formation";
    spec.kind = FaultSpec::Kind::CorruptIr;

    Session session(SessionOptions()
                        .withPipeline(Pipeline::IUPO_fused)
                        .withKeepGoing(true)
                        .withFault(spec));
    session.addProgramRef(program, profile);
    SessionResult result = session.compile();
    const FunctionResult &compiled = result.functions[0];

    EXPECT_EQ(compiled.stats.get("faultsFired"), 1);
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

TEST(GuardedPipeline, RegallocRollbackRestoresMemory)
{
    // synth64 spills, so regalloc allocates its "spill" region before
    // the injected fault fires; the generated fault-matrix programs
    // never spill and cannot see a region left behind.
    Workload w = synthFormationWorkload(64);
    Program prepared = buildWorkload(w);
    DiagnosticEngine prep_diags;
    ProfileData profile =
        prepareProgram(prepared, w.args, true, &prep_diags, true);
    ASSERT_TRUE(prep_diags.empty()) << prep_diags.toString();
    FuncSimResult oracle = runFunctional(prepared);

    {
        Program clean = prepared.clone();
        Session session(SessionOptions().withKeepGoing(true));
        session.addProgramRef(clean, profile);
        SessionResult result = session.compile();
        ASSERT_GT(result.functions[0].stats.get("spilledValues"), 0);
        ASSERT_TRUE(clean.memory.hasRegion("spill"));
    }

    for (FaultSpec::Kind kind :
         {FaultSpec::Kind::Throw, FaultSpec::Kind::CorruptIr}) {
        SCOPED_TRACE(kind == FaultSpec::Kind::Throw ? "throw" : "corrupt-ir");
        FaultSpec spec;
        spec.phase = "regalloc";
        spec.kind = kind;
        Program program = prepared.clone();
        Session session(
            SessionOptions().withKeepGoing(true).withFault(spec));
        session.addProgramRef(program, profile);
        SessionResult result = session.compile();

        EXPECT_EQ(result.functions[0].stats.get("faultsFired"), 1);
        EXPECT_EQ(result.functions[0].failedPhases,
                  std::vector<std::string>{"regalloc"});
        EXPECT_FALSE(program.memory.hasRegion("spill"))
            << "a rolled-back regalloc must not leave its spill region";
        FuncSimResult run = runFunctional(program);
        EXPECT_EQ(run.returnValue, oracle.returnValue);
        EXPECT_EQ(run.memory.userHash(), oracle.memory.userHash());
        EXPECT_EQ(run.memoryHash, oracle.memoryHash);
    }
}

/** The counters a clean compile must reproduce in either mode. The
 *  trial-memo and analysis counters are left out: they change with
 *  memo warmth, not with the mode. */
const char *const kModeCounters[] = {
    "blocksMerged",  "tailDuplicated", "unrolledIterations",
    "peeledIterations", "nullWriteInsts", "spilledValues",
    "blocksSplit",   "fanoutMoves",    "finalBlocks",
    "finalInsts",
};

struct CellOutput
{
    std::string asmText;
    std::vector<int64_t> counters;
};

/**
 * Compile a copy of the lowered @p source under one cell, prepared by
 * the Session in the cell's mode as the CLI and the daemon do; the run
 * (prepare included) must be clean.
 */
CellOutput
compileCell(const Program &source, Pipeline pipeline, PolicyKind policy,
            bool keep_going)
{
    Session session(SessionOptions()
                        .withPipeline(pipeline)
                        .withPolicy(policy)
                        .withKeepGoing(keep_going));
    session.addLowered(source.clone());
    SessionResult result = session.compile();
    EXPECT_FALSE(result.degraded());
    EXPECT_TRUE(result.diagnostics.empty())
        << result.diagnostics.toString();

    CellOutput out;
    out.asmText = writeFunctionAsm(session.program(0).fn);
    for (const char *name : kModeCounters)
        out.counters.push_back(result.functions[0].stats.get(name));
    return out;
}

TEST(GuardedPipeline, CleanKeepGoingRunMatchesStrictRun)
{
    // The 24 Table 1/2 kernels and the generator's "bench" seeds 1..20.
    std::vector<std::pair<std::string, Program>> corpus;
    for (const Workload &w : microbenchmarks())
        corpus.emplace_back(w.name, buildWorkload(w));
    GeneratorShape shape;
    ASSERT_TRUE(namedShape("bench", &shape));
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        corpus.emplace_back("gen_" + std::to_string(seed),
                            buildGenerated(generateTinyC(seed, shape)));
    }
    ASSERT_EQ(corpus.size(), 44u);

    // Every pipeline under breadth-first, every policy under (IUPO).
    std::vector<std::pair<Pipeline, PolicyKind>> cells;
    for (Pipeline p : {Pipeline::BB, Pipeline::UPIO, Pipeline::IUPO,
                       Pipeline::IUP_O, Pipeline::IUPO_fused}) {
        cells.emplace_back(p, PolicyKind::BreadthFirst);
    }
    for (PolicyKind k : {PolicyKind::DepthFirst, PolicyKind::Vliw,
                         PolicyKind::VliwConvergent}) {
        cells.emplace_back(Pipeline::IUPO_fused, k);
    }

    std::string reference_asm;
    for (const auto &[name, source] : corpus) {
        for (const auto &[pipeline, policy] : cells) {
            SCOPED_TRACE(name + " " + pipelineName(pipeline) + "/" +
                         policyKindName(policy));
            CellOutput strict =
                compileCell(source, pipeline, policy, false);
            CellOutput guarded =
                compileCell(source, pipeline, policy, true);
            EXPECT_EQ(guarded.asmText, strict.asmText)
                << "with no faults, keep-going must compile identically";
            EXPECT_EQ(guarded.counters, strict.counters);
            if (reference_asm.empty() &&
                pipeline == Pipeline::IUPO_fused &&
                policy == PolicyKind::BreadthFirst) {
                reference_asm = strict.asmText;
            }
        }
    }

    // Strict mode calls no fault hook, so an armed fault never fires
    // there, in preparation or in the compile: one scope covers both.
    FaultSpec any_phase;
    Session session(SessionOptions()
                        .withPipeline(Pipeline::IUPO_fused)
                        .withFault(any_phase));
    session.addLowered(corpus.front().second.clone());
    SessionResult result = session.compile();
    EXPECT_EQ(result.functions[0].stats.get("faultsFired"), 0);
    EXPECT_FALSE(result.degraded());
    EXPECT_TRUE(result.diagnostics.empty());
    EXPECT_EQ(writeFunctionAsm(session.program(0).fn), reference_asm);
}

} // namespace
} // namespace chf
