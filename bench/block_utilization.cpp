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
    const std::vector<GridConfig> configs = phaseOrderings();
    const std::vector<GridRow> rows = runGrid(microbenchmarks(), configs);

    std::printf("# block utilization by configuration "
                "(averages over the microbenchmarks)\n");

    TextTable table;
    table.setHeader({"config", "mean size", "static fill %",
                     "dynamic fill %", "predicated %",
                     "useful fetch %"});

    // Row -1 is the BB baseline, then one row per config.
    const TargetModel constraints;
    for (int c = -1; c < static_cast<int>(configs.size()); ++c) {
        double size = 0, sfill = 0, dfill = 0, pred = 0, useful = 0;
        for (const GridRow &row : rows) {
            const ConfigResult &run = c < 0 ? row.bb : row.runs[c];
            BlockReport report = analyzeBlocks(
                run.program.fn, constraints, &run.functional);
            size += report.meanBlockSize;
            sfill += report.staticUtilization * 100;
            dfill += report.dynamicUtilization * 100;
            pred += report.predicatedFraction * 100;
            useful += report.usefulFetchFraction * 100;
        }
        const double count = static_cast<double>(rows.size());
        table.addRow({c < 0 ? "BB" : configs[c].label,
                      TextTable::fmt(size / count, 1),
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
