/**
 * @file
 * Reproduces Table 1: percent improvement in cycle counts of
 * hyperblocks over basic blocks (BB), with the static count of blocks
 * merged / tail-duplicated / unrolled / peeled (m/t/u/p), for the
 * phase orderings UPIO, IUPO, (IUP)O, and (IUPO). All configurations
 * use the greedy breadth-first policy with incremental if-conversion,
 * as in the paper.
 *
 * --threads=N compiles the grid on N workers; the table is
 * byte-identical at any N.
 */

#include <algorithm>
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
    const std::vector<GridRow> rows =
        runGrid(microbenchmarks(), configs, threads);

    TextTable table;
    std::vector<std::string> header = {"benchmark", "BB cycles"};
    for (const GridConfig &config : configs) {
        header.push_back(config.label + " m/t/u/p");
        header.push_back("%");
    }
    table.setHeader(header);

    std::vector<double> sums(configs.size(), 0.0);
    std::printf("# table1: cycle-count improvement over BB by phase "
                "ordering (breadth-first policy)\n");

    for (const GridRow &row : rows) {
        std::vector<std::string> cells = {
            row.name, std::to_string(row.bb.timing.cycles)};
        for (size_t c = 0; c < configs.size(); ++c) {
            double pct = row.cyclePct(c);
            sums[c] += pct;
            cells.push_back(mtup(row.runs[c].stats));
            cells.push_back(TextTable::pct(pct));
        }
        table.addRow(cells);
    }

    const size_t count = rows.size();
    table.addSeparator();
    std::vector<std::string> avg = {"Average", ""};
    for (double sum : sums) {
        avg.push_back("");
        avg.push_back(TextTable::pct(sum / count));
    }
    table.addRow(avg);

    std::printf("%s", table.render().c_str());

    double best_static = std::max(sums[0], sums[1]) / count;
    double convergent = sums[3] / count;
    std::printf("\nheadline: best static ordering avg %+.1f%%, "
                "convergent (IUPO) avg %+.1f%%, delta %+.1f points "
                "(paper: convergent beats static orderings by 2-11%% "
                "avg)\n",
                best_static, convergent, convergent - best_static);
    return 0;
}
