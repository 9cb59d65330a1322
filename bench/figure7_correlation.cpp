/**
 * @file
 * Reproduces Figure 7: cycle-count reduction versus block-count
 * reduction for every (benchmark, configuration) point of Table 1,
 * with a least-squares fit and its r^2 (paper: approximately linear,
 * r^2 = 0.78). The correlation justifies using block counts from the
 * fast functional simulator as a performance proxy for Table 3.
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "../bench/harness.h"

using namespace chf;
using namespace chf::bench;

int
main()
{
    const std::vector<GridConfig> configs = phaseOrderings();
    std::vector<double> xs, ys; // block reduction, cycle reduction

    std::printf("# figure7: cycle-count reduction vs block-count "
                "reduction (one point per benchmark x configuration)\n");
    std::printf("%-16s %-8s %14s %14s\n", "benchmark", "config",
                "d(blocks)", "d(cycles)");

    for (const GridRow &row : runGrid(microbenchmarks(), configs)) {
        for (size_t c = 0; c < configs.size(); ++c) {
            const ConfigResult &run = row.runs[c];
            double dblocks =
                static_cast<double>(row.bb.functional.blocksExecuted) -
                static_cast<double>(run.functional.blocksExecuted);
            double dcycles = static_cast<double>(row.bb.timing.cycles) -
                             static_cast<double>(run.timing.cycles);
            xs.push_back(dblocks);
            ys.push_back(dcycles);
            std::printf("%-16s %-8s %14.0f %14.0f\n", row.name.c_str(),
                        configs[c].label.c_str(), dblocks, dcycles);
        }
    }

    // Least-squares fit y = a + b x and r^2.
    size_t n = xs.size();
    double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
    for (size_t i = 0; i < n; ++i) {
        sx += xs[i];
        sy += ys[i];
        sxx += xs[i] * xs[i];
        sxy += xs[i] * ys[i];
        syy += ys[i] * ys[i];
    }
    double nn = static_cast<double>(n);
    double cov = sxy - sx * sy / nn;
    double varx = sxx - sx * sx / nn;
    double vary = syy - sy * sy / nn;
    double slope = cov / varx;
    double intercept = (sy - slope * sx) / nn;
    double r2 = (cov * cov) / (varx * vary);

    std::printf("\nfit: d(cycles) = %.1f + %.2f * d(blocks) over %zu "
                "points\n",
                intercept, slope, n);
    std::printf("headline: r^2 = %.2f (paper: 0.78 -- block count "
                "reduction is a good but imperfect performance "
                "proxy); slope ~ per-block overhead in cycles\n",
                r2);
    return 0;
}
