/**
 * @file
 * Reproduces Table 3: percent improvement in *blocks executed* over
 * basic blocks for the SPEC-like suite under the functional simulator
 * (the paper uses block counts because cycle-level simulation of full
 * SPEC is too slow; §7.3 establishes the correlation), so its grid
 * runs no timing simulation.
 *
 * --threads=N compiles the grid on N workers; the table is
 * byte-identical at any N.
 */

#include <cstdio>
#include <vector>

#include "../bench/harness.h"
#include "support/table.h"

using namespace chf;
using namespace chf::bench;

int
main(int argc, char **argv)
{
    const int threads = parseThreadsFlag(argc, argv);
    const std::vector<GridConfig> configs = phaseOrderings();
    const std::vector<GridRow> rows = runGrid(
        speclikeBenchmarks(), configs, threads, /*timed=*/false);

    TextTable table;
    std::vector<std::string> header = {"benchmark", "BB blocks"};
    for (const GridConfig &config : configs)
        header.push_back(config.label + " %");
    table.setHeader(header);

    std::vector<double> sums(configs.size(), 0.0);
    std::printf("# table3: block-count improvement over BB on the "
                "SPEC-like suite (functional simulator)\n");

    for (const GridRow &row : rows) {
        const uint64_t bb_blocks = row.bb.functional.blocksExecuted;
        std::vector<std::string> cells = {row.name,
                                          std::to_string(bb_blocks)};
        for (size_t c = 0; c < configs.size(); ++c) {
            double pct = improvementPct(
                bb_blocks, row.runs[c].functional.blocksExecuted);
            sums[c] += pct;
            cells.push_back(TextTable::pct(pct));
        }
        table.addRow(cells);
    }

    const size_t count = rows.size();
    table.addSeparator();
    std::vector<std::string> avg = {"Average", ""};
    for (double sum : sums)
        avg.push_back(TextTable::pct(sum / count));
    table.addRow(avg);

    std::printf("%s", table.render().c_str());
    std::printf("\nheadline: block-count reduction averages UPIO "
                "%+.1f%%, IUPO %+.1f%%, (IUP)O %+.1f%%, (IUPO) %+.1f%% "
                "(paper: 48.1 / 49.9 / 50.7 / 51.8)\n",
                sums[0] / count, sums[1] / count, sums[2] / count,
                sums[3] / count);
    return 0;
}
