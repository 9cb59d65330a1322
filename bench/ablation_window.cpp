/**
 * @file
 * Ablation: speculative window depth. TRIPS keeps 8 blocks in flight
 * (1024-instruction window). Sweep the window and the per-block
 * dispatch interval to show why block density matters more on a
 * machine with expensive block turnover.
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
    // The grid compiles BB and (IUPO) once; each cell re-times them.
    const std::vector<GridRow> rows = runGrid(
        microbenchmarks(),
        {{"(IUPO)", SessionOptions().withPipeline(Pipeline::IUPO_fused)}},
        1, /*timed=*/false);

    std::printf("# ablation: window depth x dispatch interval "
                "(average (IUPO) improvement over BB)\n");

    TextTable table;
    table.setHeader({"window", "dispatch", "avg % vs BB"});

    for (int window : {2, 4, 8}) {
        for (int dispatch : {4, 10}) {
            TimingConfig config;
            config.maxInFlightBlocks = window;
            config.blockDispatchInterval = dispatch;
            double sum = 0.0;
            for (const GridRow &row : rows) {
                TimingResult bb = runTiming(row.bb.program, config);
                TimingResult run = runTiming(row.runs[0].program, config);
                sum += improvementPct(bb.cycles, run.cycles);
            }
            table.addRow({std::to_string(window),
                          std::to_string(dispatch),
                          TextTable::pct(sum / rows.size())});
        }
    }

    std::printf("%s", table.render().c_str());
    std::printf("\nheadline: hyperblocks matter most when per-block "
                "costs are high (large dispatch interval) and the "
                "window is shallow relative to the fetch rate.\n");
    return 0;
}
