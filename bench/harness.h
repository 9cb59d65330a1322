/**
 * @file
 * The experiment grid shared by the paper-table benchmark binaries.
 *
 * Every table of the paper's evaluation (§7) follows one protocol: each
 * benchmark is prepared once, compiled under BB and under each
 * configuration, simulated, checked against the unoptimized program,
 * and reported against BB. runGrid() is that protocol and the only code
 * in the table, figure and ablation binaries that prepares, compiles or
 * simulates; each binary keeps only its table, headline and fit. All
 * units of a grid compile in one chf::Session, so a grid run with
 * --threads=N renders byte-for-byte the same tables whatever N is.
 */

#ifndef CHF_BENCH_HARNESS_H
#define CHF_BENCH_HARNESS_H

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

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

/** One column of a grid: a label and the unit options it compiles. */
struct GridConfig
{
    std::string label;
    SessionOptions options;
};

/** The four phase orderings of Tables 1 and 3 and Figure 7. */
inline std::vector<GridConfig>
phaseOrderings()
{
    std::vector<GridConfig> configs;
    for (Pipeline pipeline : {Pipeline::UPIO, Pipeline::IUPO,
                              Pipeline::IUP_O, Pipeline::IUPO_fused}) {
        configs.push_back({pipelineName(pipeline),
                           SessionOptions().withPipeline(pipeline)});
    }
    return configs;
}

/** One compiled unit and everything measured on it. */
struct ConfigResult
{
    Program program;
    FuncSimResult functional;
    TimingResult timing; ///< all zero when the grid is not timed
    StatSet stats;
};

/**
 * Simulate a compiled program and fail unless it returns the value and
 * leaves the memory of @p oracle, the unoptimized program's run: the
 * one semantic check of every grid unit. @p timed adds the timing
 * simulator; @p label names the unit in the failure message.
 */
inline ConfigResult
measureCompiled(Program program, StatSet stats,
                const FuncSimResult &oracle, const std::string &label,
                bool timed)
{
    ConfigResult out;
    out.functional = runFunctional(program);
    if (out.functional.returnValue != oracle.returnValue ||
        out.functional.memoryHash != oracle.memoryHash) {
        fatal(concat("semantics changed under ", label));
    }
    if (timed)
        out.timing = runTiming(program);
    out.program = std::move(program);
    out.stats = std::move(stats);
    return out;
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

/** One benchmark of a grid: its BB baseline and one run per config. */
struct GridRow
{
    std::string name;
    ConfigResult bb;
    std::vector<ConfigResult> runs; ///< in config order

    /** Percent cycle improvement of config @p c over BB. */
    double
    cyclePct(size_t c) const
    {
        return improvementPct(bb.timing.cycles, runs[c].timing.cycles);
    }
};

/**
 * Run the grid @p suite × (BB + @p configs): build and prepare each
 * workload once (front-end for-loop unrolling per @p for_loop_unroll)
 * and record its functional run as the oracle, compile every unit in
 * one Session on @p threads workers, and measure each compiled unit
 * with measureCompiled (the timing simulator only when @p timed).
 * Rows come back in suite order and own their compiled programs.
 */
inline std::vector<GridRow>
runGrid(const std::vector<Workload> &suite,
        const std::vector<GridConfig> &configs, int threads = 1,
        bool timed = true, bool for_loop_unroll = true)
{
    Session session(SessionOptions().withThreads(threads));
    std::vector<FuncSimResult> oracles;
    for (const Workload &workload : suite) {
        Program base = buildWorkload(workload);
        ProfileData profile = prepareProgram(base, {}, for_loop_unroll);
        oracles.push_back(runFunctional(base));
        session.addProgram(base.clone(), profile, workload.name + "/BB",
                           SessionOptions().withPipeline(Pipeline::BB));
        for (const GridConfig &config : configs) {
            session.addProgram(base.clone(), profile,
                               workload.name + "/" + config.label,
                               config.options);
        }
    }
    SessionResult compiled = session.compile();

    // Units are workload-major: the BB baseline, then each config.
    size_t unit = 0;
    auto measure_next = [&](const FuncSimResult &oracle) {
        FunctionResult &result = compiled.functions[unit];
        return measureCompiled(std::move(session.program(unit++)),
                               std::move(result.stats), oracle,
                               result.name, timed);
    };
    std::vector<GridRow> rows(suite.size());
    for (size_t w = 0; w < suite.size(); ++w) {
        rows[w].name = suite[w].name;
        rows[w].bb = measure_next(oracles[w]);
        for (size_t c = 0; c < configs.size(); ++c)
            rows[w].runs.push_back(measure_next(oracles[w]));
    }
    return rows;
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
