/**
 * @file
 * Deadline governance tests (DESIGN.md §12): cooperative cancellation,
 * the watchdog, per-unit timeouts, the session deadline, bounded
 * retry, and the stall/transient fault kinds. The companion
 * determinism claims — a
 * timed-out or retried batch produces byte-identical output at any
 * thread count, with the rest of the batch matching a fault-free run —
 * are asserted here too; run the `deadline_robustness` ctest under
 * scripts/check_tsan.sh for the race check.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>

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
    FaultInjector::instance().disarm();
    return out;
}

FaultSpec
makeFault(FaultSpec::Kind kind, int unit)
{
    FaultSpec fault;
    fault.phase = "formation";
    fault.occurrence = unit;
    fault.kind = kind;
    return fault;
}

// ----- the acceptance scenario: stall -> watchdog -> timeout -----

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

TEST(DeadlineTimeout, SessionDeadlineCancelsStalledUnit)
{
    FaultSpec fault = makeFault(FaultSpec::Kind::Stall, 0);
    fault.stallMs = 10000;

    Timer wall;
    BatchRun run = runBatch(SessionOptions()
                                .withKeepGoing(true)
                                .withThreads(1)
                                .withDeadline(300)
                                .withFault(fault));
    EXPECT_LT(wall.elapsedMicros(), 8 * 1000 * 1000);
    ASSERT_TRUE(run.result.functions[0].degraded());
    EXPECT_EQ(run.result.functions[0].failedPhases,
              std::vector<std::string>{"deadline"});
    EXPECT_NE(run.diagText.find("deadline: session deadline exceeded"),
              std::string::npos);
}

// ----- bounded retry -----

TEST(RetryBackoff, TransientFaultSucceedsOnRetry)
{
    auto retried = [](int threads) {
        return runBatch(
            SessionOptions()
                .withKeepGoing(true)
                .withThreads(threads)
                .withRetry(1)
                .withFault(makeFault(FaultSpec::Kind::Transient, 1)));
    };
    BatchRun sequential = retried(1);
    BatchRun parallel = retried(4);

    for (const BatchRun *run : {&sequential, &parallel}) {
        // The retry recompiled unit 1 cleanly: not degraded, but the
        // first attempt's diagnostics survive.
        EXPECT_EQ(run->result.degradedCount(), 0u);
        EXPECT_EQ(run->result.functions[1].attempts, 2);
        EXPECT_EQ(run->result.totals.get("unitsRetried"), 1);
        EXPECT_NE(run->diagText.find("injected transient fault"),
                  std::string::npos);
    }

    // Determinism across thread counts, including the per-attempt
    // diagnostic stream (DESIGN.md §9 stable order).
    EXPECT_EQ(sequential.diagText, parallel.diagText);
    for (size_t unit = 0; unit < sequential.asmText.size(); ++unit)
        EXPECT_EQ(sequential.asmText[unit], parallel.asmText[unit])
            << unit;
    const auto &merged = parallel.result.diagnostics.diagnostics();
    EXPECT_TRUE(std::is_sorted(merged.begin(), merged.end(),
                               diagnosticOrder));
}

TEST(RetryBackoff, ExhaustedRetriesStayDegradedWithAllAttemptsLogged)
{
    FaultSpec fault = makeFault(FaultSpec::Kind::Transient, 1);
    fault.transientFailures = 3; // more failures than retries

    BatchRun run = runBatch(SessionOptions()
                                .withKeepGoing(true)
                                .withThreads(1)
                                .withRetry(1)
                                .withFault(fault));
    EXPECT_EQ(run.result.degradedCount(), 1u);
    EXPECT_EQ(run.result.functions[1].attempts, 2);
    // One formation diagnostic per failed attempt, in attempt order.
    size_t first = run.diagText.find("injected transient fault");
    ASSERT_NE(first, std::string::npos);
    EXPECT_NE(run.diagText.find("injected transient fault", first + 1),
              std::string::npos);
}

// ----- cancellation primitives -----

TEST(CancellationPrimitives, NullTokenNeverCancels)
{
    CancellationToken token;
    EXPECT_FALSE(token.valid());
    EXPECT_FALSE(token.cancelled());
    EXPECT_NO_THROW(token.throwIfCancelled());
}

TEST(CancellationPrimitives, SourceTripsTokensWithKind)
{
    CancellationSource source;
    CancellationToken token = source.token();
    EXPECT_TRUE(token.valid());
    EXPECT_FALSE(token.cancelled());
    source.cancel(CancelKind::Timeout);
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(token.kind(), CancelKind::Timeout);
    try {
        token.throwIfCancelled();
        FAIL() << "expected CancelledError";
    } catch (const CancelledError &e) {
        EXPECT_EQ(e.kind(), CancelKind::Timeout);
        EXPECT_EQ(e.diagnostic().phase, "timeout");
    }
}

TEST(CancellationPrimitives, ScopePublishesAndRestores)
{
    EXPECT_FALSE(CancellationToken::current().valid());
    CancellationSource outer_src;
    {
        CancellationScope outer(outer_src.token());
        EXPECT_TRUE(CancellationToken::current().valid());
        {
            CancellationScope inner((CancellationToken()));
            EXPECT_FALSE(CancellationToken::current().valid());
        }
        EXPECT_TRUE(CancellationToken::current().valid());
    }
    EXPECT_FALSE(CancellationToken::current().valid());
}

TEST(CancellationPrimitives, WatchdogTripsDueEntries)
{
    DeadlineWatchdog dog;
    CancellationSource source;
    dog.watch(source,
              DeadlineWatchdog::Clock::now() +
                  std::chrono::milliseconds(30),
              CancelKind::Deadline);
    for (int i = 0; i < 500 && !source.cancelled(); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_TRUE(source.cancelled());
    EXPECT_EQ(source.token().kind(), CancelKind::Deadline);
    EXPECT_EQ(dog.trippedCount(), 1u);
}

TEST(CancellationPrimitives, UnwatchPreventsTrip)
{
    DeadlineWatchdog dog;
    CancellationSource source;
    uint64_t id = dog.watch(source,
                            DeadlineWatchdog::Clock::now() +
                                std::chrono::milliseconds(80),
                            CancelKind::Timeout);
    dog.unwatch(id);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_FALSE(source.cancelled());
    EXPECT_EQ(dog.trippedCount(), 0u);
}

// ----- the new fault-spec grammar -----

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
    EXPECT_EQ(spec.occurrence, 1);

    ASSERT_TRUE(parseFaultSpec("kind:transient", &spec, &err)) << err;
    EXPECT_EQ(spec.kind, FaultSpec::Kind::Transient);
    EXPECT_EQ(spec.transientFailures, 1);

    ASSERT_TRUE(parseFaultSpec("kind:transient:3", &spec, &err)) << err;
    EXPECT_EQ(spec.transientFailures, 3);

    EXPECT_FALSE(parseFaultSpec("kind:stall:bogus", &spec, &err));
    EXPECT_FALSE(parseFaultSpec("kind:nosuch", &spec, &err));
}

} // namespace
} // namespace chf
