/**
 * @file
 * Ablation: sensitivity to the architectural block-size constraint.
 * TRIPS chose 128 instructions per block; sweep 32/64/128/256 and
 * report average cycle improvement of (IUPO) over basic blocks, plus
 * average dynamic block counts. Larger blocks amortize more per-block
 * overhead but admit more useless speculative instructions.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "../bench/harness.h"
#include "support/table.h"

using namespace chf;
using namespace chf::bench;

int
main()
{
    std::vector<GridConfig> configs;
    for (size_t max_insts : {32, 64, 128, 256}) {
        SessionOptions options;
        options.target.maxInsts = max_insts;
        configs.push_back({std::to_string(max_insts), options});
    }
    const std::vector<GridRow> rows = runGrid(microbenchmarks(), configs);

    std::printf("# ablation: max block size sweep ((IUPO), "
                "breadth-first, microbenchmarks)\n");

    TextTable table;
    table.setHeader({"max insts", "avg % vs BB", "avg blocks vs BB"});

    std::vector<double> avg_pct;
    for (size_t c = 0; c < configs.size(); ++c) {
        double sum_pct = 0.0;
        double sum_blockratio = 0.0;
        for (const GridRow &row : rows) {
            const ConfigResult &run = row.runs[c];
            sum_pct += row.cyclePct(c);
            sum_blockratio +=
                static_cast<double>(run.functional.blocksExecuted) /
                static_cast<double>(row.bb.functional.blocksExecuted);
        }
        avg_pct.push_back(sum_pct / rows.size());
        table.addRow({configs[c].label, TextTable::pct(avg_pct.back()),
                      TextTable::fmt(sum_blockratio / rows.size(), 2)});
    }
    const size_t peak = static_cast<size_t>(
        std::max_element(avg_pct.begin(), avg_pct.end()) - avg_pct.begin());

    std::printf("%s", table.render().c_str());
    std::printf("\nheadline: tiny blocks forfeit the block-overhead "
                "amortization; the gain peaks at %s instructions "
                "(%s%%).\n",
                configs[peak].label.c_str(),
                TextTable::pct(avg_pct[peak]).c_str());
    return 0;
}
