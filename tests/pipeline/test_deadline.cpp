/**
 * @file
 * Time-budget tests (DESIGN.md §12): the per-unit deadline token and
 * its scope, per-unit timeouts, and the stall fault kind. The
 * companion determinism claims — a timed-out batch produces
 * byte-identical output at any thread count, with the rest of the
 * batch matching a fault-free run — are asserted here too; run the
 * `deadline_robustness` ctest under scripts/check_tsan.sh for the race
 * check.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

#include "backend/asm_writer.h"
#include "pipeline/session.h"
#include "support/cancellation.h"
#include "support/fault_inject.h"
#include "support/timer.h"
#include "workloads/workloads.h"

namespace chf {
namespace {

const char *const kBatch[] = {"dhry", "bzip2_3", "parser_1", "sieve",
                              "gzip_1"};

/** Per-unit asm + merged diagnostics + results of one batch compile. */
struct BatchRun
{
    std::vector<std::string> asmText;
    std::string diagText;
    SessionResult result;
};

BatchRun
runBatch(SessionOptions options)
{
    Session session(std::move(options));
    for (const char *name : kBatch) {
        const Workload *workload = findWorkload(name);
        EXPECT_NE(workload, nullptr) << name;
        Program program = buildWorkload(*workload);
        ProfileData profile = prepareProgram(program);
        session.addProgram(std::move(program), std::move(profile), name);
    }
    BatchRun out;
    out.result = session.compile();
    for (size_t unit = 0; unit < session.size(); ++unit)
        out.asmText.push_back(writeFunctionAsm(session.program(unit).fn));
    out.diagText = out.result.diagnostics.toString();
    return out;
}

FaultSpec
makeFault(FaultSpec::Kind kind, int unit)
{
    FaultSpec fault;
    fault.phase = "formation";
    fault.unit = unit;
    fault.kind = kind;
    return fault;
}

// ----- the acceptance scenario: stall -> deadline -> timeout -----

TEST(DeadlineTimeout, StalledUnitTimesOutAndRestOfBatchIsIdentical)
{
    BatchRun clean =
        runBatch(SessionOptions().withKeepGoing(true).withThreads(4));
    ASSERT_EQ(clean.result.degradedCount(), 0u);

    FaultSpec fault = makeFault(FaultSpec::Kind::Stall, 1);
    fault.stallMs = 10000;

    Timer wall;
    BatchRun run = runBatch(SessionOptions()
                                .withKeepGoing(true)
                                .withThreads(4)
                                .withUnitTimeout(750)
                                .withFault(fault));
    // "Promptly": the 750ms budget aborts the 10s stall at the next
    // 1ms poll slice; nowhere near the full stall.
    EXPECT_LT(wall.elapsedMicros(), 8 * 1000 * 1000);

    EXPECT_EQ(run.result.degradedCount(), 1u);
    ASSERT_TRUE(run.result.functions[1].degraded());
    EXPECT_EQ(run.result.functions[1].failedPhases,
              std::vector<std::string>{"timeout"});
    EXPECT_NE(run.diagText.find("timeout: unit exceeded its time budget"),
              std::string::npos);

    // Every unit the fault did not touch is byte-identical to the
    // fault-free run, timeout machinery armed or not.
    for (size_t unit = 0; unit < run.asmText.size(); ++unit) {
        if (unit == 1)
            continue;
        EXPECT_EQ(run.asmText[unit], clean.asmText[unit]) << unit;
    }
}

TEST(DeadlineTimeout, TimedOutBatchIsByteIdenticalAcrossThreadCounts)
{
    auto timed = [](int threads) {
        FaultSpec fault = makeFault(FaultSpec::Kind::Stall, 1);
        fault.stallMs = 10000;
        return runBatch(SessionOptions()
                            .withKeepGoing(true)
                            .withThreads(threads)
                            .withUnitTimeout(750)
                            .withFault(fault));
    };
    BatchRun sequential = timed(1);
    BatchRun parallel = timed(4);
    EXPECT_EQ(sequential.diagText, parallel.diagText);
    ASSERT_EQ(sequential.asmText.size(), parallel.asmText.size());
    for (size_t unit = 0; unit < sequential.asmText.size(); ++unit)
        EXPECT_EQ(sequential.asmText[unit], parallel.asmText[unit])
            << unit;
    EXPECT_EQ(sequential.result.functions[1].failedPhases,
              std::vector<std::string>{"timeout"});

    // The merged stream honors the stable (functionIndex, phase, loc,
    // block, sequence) order even with a cancelled unit in the batch.
    const auto &merged = parallel.result.diagnostics.diagnostics();
    EXPECT_TRUE(std::is_sorted(merged.begin(), merged.end(),
                               diagnosticOrder));
}

// ----- the deadline token -----

TEST(CancellationPrimitives, NullTokenNeverCancels)
{
    CancellationToken token;
    EXPECT_FALSE(token.cancelled());
    EXPECT_NO_THROW(token.throwIfCancelled());
}

TEST(CancellationPrimitives, PassedDeadlineThrowsTimeout)
{
    const auto now = CancellationToken::Clock::now();
    CancellationToken future(now + std::chrono::hours(1));
    EXPECT_FALSE(future.cancelled());
    EXPECT_NO_THROW(future.throwIfCancelled());

    CancellationToken passed(now - std::chrono::milliseconds(1));
    EXPECT_TRUE(passed.cancelled());
    try {
        passed.throwIfCancelled();
        FAIL() << "expected CancelledError";
    } catch (const CancelledError &e) {
        EXPECT_EQ(e.diagnostic().phase, "timeout");
        EXPECT_EQ(e.diagnostic().toString(),
                  "error: timeout: unit exceeded its time budget");
    }
}

TEST(CancellationPrimitives, ScopePublishesAndRestores)
{
    EXPECT_FALSE(CancellationToken::current().cancelled());
    const auto passed =
        CancellationToken::Clock::now() - std::chrono::milliseconds(1);
    {
        CancellationScope outer((CancellationToken(passed)));
        EXPECT_TRUE(CancellationToken::current().cancelled());
        {
            CancellationScope inner((CancellationToken()));
            EXPECT_FALSE(CancellationToken::current().cancelled());
        }
        EXPECT_TRUE(CancellationToken::current().cancelled());
    }
    EXPECT_FALSE(CancellationToken::current().cancelled());
}

// ----- the fault-spec grammar -----

TEST(DeadlineFaultSpec, ParsesStallAndTransient)
{
    FaultSpec spec;
    std::string err;
    ASSERT_TRUE(parseFaultSpec("phase:formation,fn:1,kind:stall:5000",
                               &spec, &err))
        << err;
    EXPECT_EQ(spec.kind, FaultSpec::Kind::Stall);
    EXPECT_EQ(spec.stallMs, 5000);
    EXPECT_EQ(spec.phase, "formation");
    EXPECT_EQ(spec.unit, 1);

    // No transient kind: there is no retry for it to exercise.
    EXPECT_FALSE(parseFaultSpec("kind:transient", &spec, &err));
    EXPECT_FALSE(parseFaultSpec("kind:transient:3", &spec, &err));

    EXPECT_FALSE(parseFaultSpec("kind:stall:bogus", &spec, &err));
    EXPECT_FALSE(parseFaultSpec("kind:nosuch", &spec, &err));
}

} // namespace
} // namespace chf
