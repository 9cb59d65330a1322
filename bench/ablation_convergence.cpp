/**
 * @file
 * Ablation: which ingredient of convergent formation buys what?
 * Starting from full (IUPO) breadth-first formation, change one
 * mechanism at a time:
 *   - unroll/peel as a discrete phase before formation -> "UPIO"
 *   - no optimization inside the merge loop            -> "(IUP)O"
 *   - no for-loop unrolling in the front end
 *   - basic-block splitting (paper §9)
 * and report average cycle improvement over basic blocks across the
 * microbenchmark suite.
 */

#include <cstdio>
#include <vector>

#include "../bench/harness.h"
#include "support/table.h"

using namespace chf;
using namespace chf::bench;

int
main()
{
    SessionOptions splitting;
    splitting.blockSplitting = true;
    const std::vector<GridConfig> configs = {
        {"full (IUPO)", SessionOptions()},
        {"unroll/peel phase first (UPIO)",
         SessionOptions().withPipeline(Pipeline::UPIO)},
        {"no optimize-in-loop",
         SessionOptions().withPipeline(Pipeline::IUP_O)},
        {"with block splitting (paper §9)", splitting},
    };
    const std::vector<GridRow> rows = runGrid(microbenchmarks(), configs);
    // Without front-end unrolling the BB baseline is prepared without
    // it too, so that variant is a grid of its own.
    const std::vector<GridRow> no_unroll =
        runGrid(microbenchmarks(), {configs[0]}, 1, /*timed=*/true,
                /*for_loop_unroll=*/false);

    auto average = [](const std::vector<GridRow> &grid, size_t c) {
        double sum = 0.0;
        for (const GridRow &row : grid)
            sum += row.cyclePct(c);
        return TextTable::pct(sum / grid.size());
    };

    std::printf("# ablation: convergent-formation ingredients "
                "(average cycle improvement over BB, microbenchmarks)\n");
    TextTable table;
    table.setHeader({"variant", "avg % vs BB"});
    // The no-unroll variant is the fourth row, before block splitting.
    for (size_t c = 0; c < 3; ++c)
        table.addRow({configs[c].label, average(rows, c)});
    table.addRow({"no front-end for-loop unroll", average(no_unroll, 0)});
    table.addRow({configs[3].label, average(rows, 3)});
    std::printf("%s", table.render().c_str());
    std::printf("\nheadline: each mechanism contributes; the full "
                "convergent configuration should be at or near the "
                "top.\n");
    return 0;
}
