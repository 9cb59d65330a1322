/**
 * @file
 * Tests for chf::Session, the unified compilation façade and parallel
 * driver: the determinism contract (multi-threaded compiles are
 * byte-identical to sequential ones — asm and diagnostics), the
 * unit-indexed fault injection semantics at 4 threads, the flat unit
 * loop's edge cases (no units, more threads than units), the fluent
 * options builder, and a TSan-targeted stress batch over the synthetic
 * synth64 workload (run the `session_parallel` ctest under
 * CHF_SANITIZE=thread to check the workers for races).
 */

#include <gtest/gtest.h>

#include "backend/asm_writer.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "pipeline/session.h"
#include "sim/functional_sim.h"
#include "support/fault_inject.h"
#include "workloads/workloads.h"

namespace chf {
namespace {

/** A while-loop kernel: exercises head duplication, so the discrete
 *  unroll/peel phases of the IUPO pipeline run (and can be faulted). */
const char *const kSource =
    "int mem[32];\n"
    "int main(int a0) {\n"
    "  int acc = 0;\n"
    "  int i = 0;\n"
    "  while (i < 7) {\n"
    "    int t = (i * 13 + a0) % 32;\n"
    "    if ((t & 1) == 1) { acc += t * 3; } else { acc -= t; }\n"
    "    mem[t] = acc;\n"
    "    i += 1;\n"
    "  }\n"
    "  return acc;\n"
    "}\n";

Program
makeProgram()
{
    Program program = Session::frontend(kSource);
    program.defaultArgs = {3};
    return program;
}

// ----- determinism matrix -----

/** Per-unit asm plus the merged diagnostic stream of one batch. */
struct BatchOutput
{
    std::vector<std::string> asmText;
    std::string diagText;
};

/**
 * Compile a 5-workload batch under @p policy with @p threads workers.
 * A formation fault is injected into unit 1 (keep-going mode) so the
 * diagnostic stream is non-empty and its merge order is exercised.
 */
BatchOutput
compileBatch(PolicyKind policy, int threads)
{
    const char *const names[] = {"dhry", "bzip2_3", "parser_1", "sieve",
                                 "gzip_1"};

    FaultSpec fault;
    fault.phase = "formation";
    fault.unit = 1;
    fault.kind = FaultSpec::Kind::CorruptIr;

    Session session(SessionOptions()
                        .withPolicy(policy)
                        .withKeepGoing(true)
                        .withThreads(threads)
                        .withFault(fault));
    for (const char *name : names) {
        const Workload *workload = findWorkload(name);
        EXPECT_NE(workload, nullptr) << name;
        Program program = buildWorkload(*workload);
        ProfileData profile = prepareProgram(program);
        session.addProgram(std::move(program), std::move(profile),
                           name);
    }
    SessionResult result = session.compile();

    BatchOutput out;
    for (size_t unit = 0; unit < session.size(); ++unit)
        out.asmText.push_back(writeFunctionAsm(session.program(unit).fn));
    out.diagText = result.diagnostics.toString();

    EXPECT_EQ(result.degradedCount(), 1u);
    EXPECT_TRUE(result.functions[1].degraded());
    return out;
}

class SessionDeterminism
    : public ::testing::TestWithParam<PolicyKind>
{
};

TEST_P(SessionDeterminism, ParallelOutputMatchesSequentialByteForByte)
{
    BatchOutput reference = compileBatch(GetParam(), 1);
    ASSERT_FALSE(reference.diagText.empty())
        << "the injected fault must produce diagnostics";

    for (int threads : {2, 4, 8}) {
        SCOPED_TRACE(testing::Message() << "threads=" << threads);
        BatchOutput parallel = compileBatch(GetParam(), threads);
        ASSERT_EQ(parallel.asmText.size(), reference.asmText.size());
        for (size_t unit = 0; unit < reference.asmText.size(); ++unit) {
            EXPECT_EQ(parallel.asmText[unit], reference.asmText[unit])
                << "unit " << unit;
        }
        EXPECT_EQ(parallel.diagText, reference.diagText);
    }
}

INSTANTIATE_TEST_SUITE_P(Policies, SessionDeterminism,
                         ::testing::Values(PolicyKind::BreadthFirst,
                                           PolicyKind::DepthFirst,
                                           PolicyKind::Vliw),
                         [](const auto &info) {
                             return std::string(
                                 policyKindName(info.param));
                         });

// ----- fault matrix at 4 threads -----

TEST(SessionFaultMatrix, UnitFaultFiresExactlyOnceAtFourThreads)
{
    const Program lowered = makeProgram();
    Program base = lowered.clone();
    ProfileData profile = prepareProgram(base);
    FuncSimResult oracle = runFunctional(base);

    constexpr int kUnits = 4;
    constexpr int kFaultUnit = 2;

    // Prepared units (addProgram), or lowered ones (addLowered) that
    // each worker prepares inside its unit's scopes.
    auto runBatch = [&](Pipeline pipeline,
                        std::optional<FaultSpec> fault, bool add_lowered,
                        std::vector<std::string> *asm_out,
                        SessionResult *result_out) {
        SessionOptions options = SessionOptions()
                                     .withPipeline(pipeline)
                                     .withKeepGoing(true)
                                     .withThreads(fault ? 4 : 1);
        if (fault)
            options.withFault(*fault);
        Session session(options);
        for (int u = 0; u < kUnits; ++u) {
            const std::string name = "u" + std::to_string(u);
            if (add_lowered)
                session.addLowered(lowered.clone(), name);
            else
                session.addProgram(base.clone(), profile, name);
        }
        *result_out = session.compile();
        asm_out->clear();
        for (size_t u = 0; u < session.size(); ++u)
            asm_out->push_back(
                writeFunctionAsm(session.program(u).fn));
    };

    // Clean single-threaded references, one per pipeline used below.
    std::vector<std::string> ref_fused, ref_iupo;
    SessionResult ref_result;
    runBatch(Pipeline::IUPO_fused, std::nullopt, false, &ref_fused,
             &ref_result);
    ASSERT_FALSE(ref_result.degraded());
    runBatch(Pipeline::IUPO, std::nullopt, false, &ref_iupo, &ref_result);
    ASSERT_FALSE(ref_result.degraded());

    struct Case
    {
        const char *phase;
        Pipeline pipeline;
        bool lowered;
    };
    // The lowered case faults prepare's for-loop "unroll": (IUPO) has
    // no unroll phase of its own, so the hook can only be prepare's.
    const Case cases[] = {
        {"unroll", Pipeline::IUPO, false},
        {"peel", Pipeline::IUPO, false},
        {"formation", Pipeline::IUPO_fused, false},
        {"regalloc", Pipeline::IUPO_fused, false},
        {"fanout", Pipeline::IUPO_fused, false},
        {"schedule", Pipeline::IUPO_fused, false},
        {"unroll", Pipeline::IUPO_fused, true},
    };
    const FaultSpec::Kind kinds[] = {FaultSpec::Kind::CorruptIr,
                                     FaultSpec::Kind::Throw};
    for (const auto &[phase, pipeline, add_lowered] : cases) {
        const std::vector<std::string> &reference =
            pipeline == Pipeline::IUPO ? ref_iupo : ref_fused;
        for (FaultSpec::Kind kind : kinds) {
            SCOPED_TRACE(std::string(phase) + "/" +
                         (kind == FaultSpec::Kind::CorruptIr
                              ? "corrupt-ir"
                              : "throw") +
                         (add_lowered ? "/lowered" : ""));
            FaultSpec spec;
            spec.phase = phase;
            spec.unit = kFaultUnit;
            spec.kind = kind;

            std::vector<std::string> asmText;
            SessionResult result;
            runBatch(pipeline, spec, add_lowered, &asmText, &result);

            // Exactly one firing, in the faulted unit, under 4
            // worker threads.
            ASSERT_EQ(result.totals.get("faultsFired"), 1);
            for (int u = 0; u < kUnits; ++u)
                ASSERT_EQ(result.functions[u].stats.get("faultsFired"),
                          u == kFaultUnit ? 1 : 0)
                    << "unit " << u;

            // Only the faulted unit degrades; the merged views name
            // it; every other unit compiles bit-identically to the
            // clean reference.
            ASSERT_EQ(result.degradedCount(), 1u);
            ASSERT_EQ(result.failedPhases(),
                      (std::vector<std::string>{
                          "u" + std::to_string(kFaultUnit) + ":" +
                          phase}));
            for (int u = 0; u < kUnits; ++u) {
                if (u == kFaultUnit)
                    continue;
                ASSERT_FALSE(result.functions[u].degraded());
                ASSERT_EQ(asmText[u], reference[u]) << "unit " << u;
            }

            // The merged diagnostics are stamped with the faulted
            // unit's index and name the phase.
            ASSERT_TRUE(result.diagnostics.hasPhase(phase));
            for (const Diagnostic &d :
                 result.diagnostics.diagnostics()) {
                ASSERT_EQ(d.functionIndex, kFaultUnit);
            }
        }
    }
}

// ----- flat unit loop -----

TEST(SessionUnitLoop, ZeroUnitsAndMoreThreadsThanUnits)
{
    // No units at 4 threads: nothing to claim, an empty result.
    Session empty(SessionOptions().withThreads(4));
    SessionResult none = empty.compile();
    EXPECT_TRUE(none.functions.empty());
    EXPECT_EQ(none.totals.get("unitsCompiled"), 0);
    EXPECT_TRUE(none.diagnostics.empty());

    // 3 units at 8 threads: at most one worker per unit, and the same
    // bytes as the sequential path.
    auto run = [](int threads) {
        Session session(SessionOptions().withThreads(threads));
        for (const char *name : {"sieve", "dhry", "bzip2_3"}) {
            Program program = buildWorkload(*findWorkload(name));
            ProfileData profile = prepareProgram(program);
            session.addProgram(std::move(program), std::move(profile),
                               name);
        }
        SessionResult result = session.compile();
        EXPECT_EQ(result.totals.get("unitsCompiled"), 3);
        EXPECT_FALSE(result.degraded());
        std::vector<std::string> asm_text;
        for (size_t u = 0; u < session.size(); ++u)
            asm_text.push_back(writeFunctionAsm(session.program(u).fn));
        return asm_text;
    };
    std::vector<std::string> sequential = run(1);
    std::vector<std::string> parallel = run(8);
    ASSERT_EQ(parallel.size(), 3u);
    for (size_t u = 0; u < sequential.size(); ++u)
        EXPECT_EQ(parallel[u], sequential[u]) << "unit " << u;
}

// ----- fluent builder -----

TEST(SessionBuilder, FluentOptionsSetEveryField)
{
    TargetModel model;
    model.maxInsts = 64;
    FaultSpec fault;
    fault.phase = "formation";

    SessionOptions options = SessionOptions()
                                 .withPipeline(Pipeline::UPIO)
                                 .withPolicy(PolicyKind::DepthFirst)
                                 .withTarget(model)
                                 .withBackend(false)
                                 .withKeepGoing(true)
                                 .withThreads(8)
                                 .withFault(fault);

    EXPECT_EQ(options.pipeline, Pipeline::UPIO);
    EXPECT_EQ(options.policy, PolicyKind::DepthFirst);
    EXPECT_EQ(options.target.maxInsts, 64u);
    EXPECT_FALSE(options.runBackend);
    EXPECT_TRUE(options.keepGoing);
    EXPECT_EQ(options.threads, 8);
    ASSERT_TRUE(options.faultSpec.has_value());
    EXPECT_EQ(options.faultSpec->phase, "formation");
}

TEST(SessionBuilder, AddSourceLowersAndPrepares)
{
    Session session;
    size_t unit = session.addSource(kSource, "demo", {3});
    EXPECT_EQ(session.size(), 1u);

    SessionResult result = session.compile();
    EXPECT_EQ(result.functions[0].name, "demo");
    EXPECT_GT(result.functions[0].blocks, 0u);
    EXPECT_TRUE(verify(session.program(unit).fn).empty());

    // compile() prepared the unit, and its total covers prepare.
    const StatSet &stats = result.functions[0].stats;
    EXPECT_TRUE(stats.has("usPrepare"));
    EXPECT_GE(stats.get("usCompileTotal"), stats.get("usPrepare"));
}

// ----- parallel stress over synth64 (TSan target) -----

TEST(SessionStress, ParallelSynthBatchMatchesSequential)
{
    Program base = buildWorkload(synthFormationWorkload(64));
    ProfileData profile = prepareProgram(base);
    FuncSimResult oracle = runFunctional(base);

    constexpr int kUnits = 8;
    auto runBatch = [&](int threads) {
        Session session(SessionOptions().withThreads(threads));
        for (int u = 0; u < kUnits; ++u)
            session.addProgram(base.clone(), profile);
        SessionResult result = session.compile();
        EXPECT_FALSE(result.degraded());
        EXPECT_EQ(result.totals.get("unitsCompiled"), kUnits);

        std::vector<std::string> asmText;
        for (size_t u = 0; u < session.size(); ++u) {
            EXPECT_TRUE(verify(session.program(u).fn).empty());
            asmText.push_back(
                writeFunctionAsm(session.program(u).fn));
        }
        // Every unit is a clone of the same program, so semantic
        // equivalence of one representative covers the batch (the asm
        // comparison below pins the rest bit-for-bit). synth64 is big
        // enough that regalloc spills, and spill-slot writes land in
        // the memory image, so only the return value is comparable
        // against the uncompiled oracle.
        FuncSimResult run = runFunctional(session.program(0));
        EXPECT_EQ(run.returnValue, oracle.returnValue);
        return asmText;
    };

    std::vector<std::string> sequential = runBatch(1);
    std::vector<std::string> parallel = runBatch(8);
    ASSERT_EQ(sequential.size(), parallel.size());
    for (size_t u = 0; u < sequential.size(); ++u)
        EXPECT_EQ(sequential[u], parallel[u]) << "unit " << u;
    for (size_t u = 1; u < sequential.size(); ++u)
        EXPECT_EQ(sequential[u], sequential[0])
            << "clones must compile identically";
}

} // namespace
} // namespace chf
