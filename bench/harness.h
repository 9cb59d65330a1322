/**
 * @file
 * Shared helpers for the paper-table benchmark binaries.
 *
 * All benches compile through chf::Session. Table-style benches batch
 * every (workload, configuration) pair into one session and accept a
 * --threads=N flag; because Session output is bit-identical at any
 * thread count, the rendered tables are byte-for-byte the same
 * whatever N is.
 */

#ifndef CHF_BENCH_HARNESS_H
#define CHF_BENCH_HARNESS_H

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "pipeline/session.h"
#include "sim/functional_sim.h"
#include "sim/timing_sim.h"
#include "support/fatal.h"
#include "support/parse_int.h"
#include "workloads/workloads.h"

namespace chf::bench {

/**
 * Parse --threads=N from argv; defaults to 1 (sequential). Any other
 * argument, or an N that is not a whole number >= 1, prints the usage
 * line and exits 1. @p flags is the usage text after the program name.
 */
inline int
parseThreadsFlag(int argc, char **argv,
                 const char *flags = "[--threads=N]")
{
    int threads = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--threads=", 10) != 0 ||
            !parseAtLeast(argv[i] + 10, 1, &threads)) {
            std::fprintf(stderr, "usage: %s %s\n", argv[0], flags);
            std::exit(1);
        }
    }
    return threads;
}

/** Everything measured for one workload under one configuration. */
struct ConfigResult
{
    TimingResult timing;
    FuncSimResult functional;
    StatSet stats;
};

/**
 * Simulate an already-compiled program with both simulators and assert
 * that semantics match the baseline hashes. @p label names the
 * configuration in the failure message.
 */
inline ConfigResult
measureCompiled(const Program &program, StatSet stats,
                int64_t expect_return, uint64_t expect_memory,
                const std::string &label)
{
    ConfigResult out;
    out.stats = std::move(stats);
    out.functional = runFunctional(program);
    out.timing = runTiming(program);
    if (out.functional.returnValue != expect_return ||
        out.functional.memoryHash != expect_memory) {
        fatal(concat("semantics changed under ", label));
    }
    return out;
}

/**
 * Compile a clone of a prepared program under @p options through a
 * single-unit Session and measure it with both simulators. Asserts
 * that semantics match the baseline hashes.
 */
inline ConfigResult
measure(const Program &prepared, const ProfileData &profile,
        const SessionOptions &options, int64_t expect_return,
        uint64_t expect_memory)
{
    Session session(options);
    size_t unit =
        session.addProgram(prepared.clone(), profile);
    SessionResult compiled = session.compile(1);
    return measureCompiled(session.program(unit),
                           std::move(compiled.functions[unit].stats),
                           expect_return, expect_memory,
                           concat(pipelineName(options.pipeline), "/",
                                  policyKindName(options.policy)));
}

/**
 * Compile a clone of @p prepared under @p options through a single-unit
 * Session and hand back the compiled program (for callers that want to
 * run their own simulation or reporting on it).
 */
inline Program
compileClone(const Program &prepared, const ProfileData &profile,
             const SessionOptions &options)
{
    Session session(options);
    size_t unit = session.addProgram(prepared.clone(), profile);
    session.compile(1);
    return session.program(unit).clone();
}

/** Percent improvement of @p cycles over @p base_cycles. */
inline double
improvementPct(uint64_t base_cycles, uint64_t cycles)
{
    return 100.0 *
           (static_cast<double>(base_cycles) -
            static_cast<double>(cycles)) /
           static_cast<double>(base_cycles);
}

/** Render the m/t/u/p column of Table 1. */
inline std::string
mtup(const StatSet &stats)
{
    return concat(stats.get("blocksMerged"), "/",
                  stats.get("tailDuplicated"), "/",
                  stats.get("unrolledIterations"), "/",
                  stats.get("peeledIterations"));
}

} // namespace chf::bench

#endif // CHF_BENCH_HARNESS_H
