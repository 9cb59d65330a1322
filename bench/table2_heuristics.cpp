/**
 * @file
 * Reproduces Table 2: percent improvement in cycle count over basic
 * blocks using the path-based VLIW heuristic (with and without
 * iterative optimization), the depth-first heuristic, and the
 * breadth-first heuristic, all inside convergent formation.
 *
 * Every (workload, heuristic) pair is one unit of a chf::Session
 * compiled with --threads=N workers; the rendered table is
 * byte-identical at any thread count.
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

    const std::vector<std::pair<const char *, PolicyKind>> configs = {
        {"VLIW", PolicyKind::Vliw},
        {"ConvVLIW", PolicyKind::VliwConvergent},
        {"DF", PolicyKind::DepthFirst},
        {"BF", PolicyKind::BreadthFirst},
    };

    // Phase A (sequential): build, prepare, record oracles, queue the
    // BB baseline and the four heuristic units per workload.
    struct Entry
    {
        std::string name;
        FuncSimResult oracle;
        size_t bbUnit = 0;
        std::vector<size_t> units;
    };
    std::vector<Entry> entries;

    Session session(SessionOptions().withThreads(threads));
    for (const auto &workload : microbenchmarks()) {
        Program base = buildWorkload(workload);
        ProfileData profile = prepareProgram(base);

        Entry entry;
        entry.name = workload.name;
        entry.oracle = runFunctional(base);
        entry.bbUnit = session.addProgram(
            base.clone(), profile, workload.name + "/BB",
            SessionOptions().withPipeline(Pipeline::BB));
        for (const auto &config : configs) {
            entry.units.push_back(session.addProgram(
                base.clone(), profile,
                workload.name + "/" + config.first,
                SessionOptions()
                    .withPipeline(Pipeline::IUPO_fused)
                    .withPolicy(config.second)));
        }
        entries.push_back(std::move(entry));
    }

    // Phase B: compile the whole batch (possibly in parallel).
    SessionResult compiled = session.compile();

    // Phase C (sequential): simulate and render in workload order.
    TextTable table;
    table.setHeader({"benchmark", "BB cycles", "VLIW %", "ConvVLIW %",
                     "DF %", "BF %"});

    std::vector<double> sums(configs.size(), 0.0);
    size_t count = 0;
    double worst_df = 0.0, worst_vliw = 0.0;
    std::string worst_df_name, worst_vliw_name;

    std::printf("# table2: cycle-count improvement over BB by block "
                "selection heuristic ((IUPO) pipeline)\n");

    for (Entry &entry : entries) {
        ConfigResult bb = measureCompiled(
            session.program(entry.bbUnit),
            std::move(compiled.functions[entry.bbUnit].stats),
            entry.oracle.returnValue, entry.oracle.memoryHash,
            entry.name + "/BB");

        std::vector<std::string> row;
        row.push_back(entry.name);
        row.push_back(std::to_string(bb.timing.cycles));

        for (size_t c = 0; c < configs.size(); ++c) {
            size_t unit = entry.units[c];
            ConfigResult run = measureCompiled(
                session.program(unit),
                std::move(compiled.functions[unit].stats),
                entry.oracle.returnValue, entry.oracle.memoryHash,
                entry.name + "/" + configs[c].first);
            double pct =
                improvementPct(bb.timing.cycles, run.timing.cycles);
            sums[c] += pct;
            row.push_back(TextTable::pct(pct));
            if (configs[c].second == PolicyKind::DepthFirst &&
                pct < worst_df) {
                worst_df = pct;
                worst_df_name = entry.name;
            }
            if (configs[c].second == PolicyKind::Vliw &&
                pct < worst_vliw) {
                worst_vliw = pct;
                worst_vliw_name = entry.name;
            }
        }
        table.addRow(row);
        ++count;
    }

    table.addSeparator();
    std::vector<std::string> avg = {"Average", ""};
    for (size_t c = 0; c < configs.size(); ++c)
        avg.push_back(TextTable::pct(sums[c] / count));
    table.addRow(avg);

    std::printf("%s", table.render().c_str());

    std::printf(
        "\nheadline: VLIW %+.1f%% -> ConvVLIW %+.1f%% (paper: 6.1%% -> "
        "10.7%%, iterative optimization helps the VLIW heuristic); "
        "DF %+.1f%%, BF %+.1f%% (paper: 5.7%% and 27%%)\n",
        sums[0] / count, sums[1] / count, sums[2] / count,
        sums[3] / count);
    if (!worst_df_name.empty()) {
        std::printf("worst depth-first benchmark: %s at %+.1f%% "
                    "(paper: bzip2_3 at -68.1%%, tail-duplicated "
                    "induction update)\n",
                    worst_df_name.c_str(), worst_df);
    }
    if (!worst_vliw_name.empty()) {
        std::printf("worst VLIW benchmark: %s at %+.1f%% (paper: "
                    "bzip2_3 at -91.7%%)\n",
                    worst_vliw_name.c_str(), worst_vliw);
    }
    return 0;
}
