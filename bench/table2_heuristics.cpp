/**
 * @file
 * Reproduces Table 2: percent improvement in cycle count over basic
 * blocks using the path-based VLIW heuristic (with and without
 * iterative optimization), the depth-first heuristic, and the
 * breadth-first heuristic, all inside convergent formation.
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

    // Column order: VLIW, ConvVLIW, DF, BF.
    std::vector<GridConfig> configs;
    for (PolicyKind policy :
         {PolicyKind::Vliw, PolicyKind::VliwConvergent,
          PolicyKind::DepthFirst, PolicyKind::BreadthFirst}) {
        configs.push_back({policyKindName(policy),
                           SessionOptions()
                               .withPipeline(Pipeline::IUPO_fused)
                               .withPolicy(policy)});
    }
    const std::vector<GridRow> rows =
        runGrid(microbenchmarks(), configs, threads);

    TextTable table;
    std::vector<std::string> header = {"benchmark", "BB cycles"};
    for (const GridConfig &config : configs)
        header.push_back(config.label + " %");
    table.setHeader(header);

    // Per policy: the sum of improvements and the worst benchmark.
    std::vector<double> sums(configs.size(), 0.0), worst(configs.size());
    std::vector<std::string> worst_name(configs.size());

    std::printf("# table2: cycle-count improvement over BB by block "
                "selection heuristic ((IUPO) pipeline)\n");

    for (const GridRow &row : rows) {
        std::vector<std::string> cells = {
            row.name, std::to_string(row.bb.timing.cycles)};
        for (size_t c = 0; c < configs.size(); ++c) {
            double pct = row.cyclePct(c);
            sums[c] += pct;
            cells.push_back(TextTable::pct(pct));
            if (pct < worst[c]) {
                worst[c] = pct;
                worst_name[c] = row.name;
            }
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

    std::printf(
        "\nheadline: VLIW %+.1f%% -> ConvVLIW %+.1f%% (paper: 6.1%% -> "
        "10.7%%, iterative optimization helps the VLIW heuristic); "
        "DF %+.1f%%, BF %+.1f%% (paper: 5.7%% and 27%%)\n",
        sums[0] / count, sums[1] / count, sums[2] / count,
        sums[3] / count);
    if (!worst_name[2].empty()) {
        std::printf("worst depth-first benchmark: %s at %+.1f%% "
                    "(paper: bzip2_3 at -68.1%%, tail-duplicated "
                    "induction update)\n",
                    worst_name[2].c_str(), worst[2]);
    }
    if (!worst_name[0].empty()) {
        std::printf("worst VLIW benchmark: %s at %+.1f%% (paper: "
                    "bzip2_3 at -91.7%%)\n",
                    worst_name[0].c_str(), worst[0]);
    }
    return 0;
}
