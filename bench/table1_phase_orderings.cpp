/**
 * @file
 * Reproduces Table 1: percent improvement in cycle counts of
 * hyperblocks over basic blocks (BB), with the static count of blocks
 * merged / tail-duplicated / unrolled / peeled (m/t/u/p), for the
 * phase orderings UPIO, IUPO, (IUP)O, and (IUPO). All configurations
 * use the greedy breadth-first policy with incremental if-conversion,
 * as in the paper.
 *
 * Every (workload, ordering) pair is one unit of a chf::Session
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

    struct Config
    {
        const char *label;
        Pipeline pipeline;
    };
    const std::vector<Config> configs = {
        {"UPIO", Pipeline::UPIO},
        {"IUPO", Pipeline::IUPO},
        {"(IUP)O", Pipeline::IUP_O},
        {"(IUPO)", Pipeline::IUPO_fused},
    };

    // Phase A (sequential, deterministic): build and prepare every
    // workload, record the reference simulation, and queue one session
    // unit per (workload, ordering) pair.
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
        for (const Config &config : configs) {
            entry.units.push_back(session.addProgram(
                base.clone(), profile,
                workload.name + "/" + config.label,
                SessionOptions().withPipeline(config.pipeline)));
        }
        entries.push_back(std::move(entry));
    }

    // Phase B: compile the whole batch (possibly in parallel).
    SessionResult compiled = session.compile();

    // Phase C (sequential): simulate and render in workload order.
    TextTable table;
    table.setHeader({"benchmark", "BB cycles", "UPIO m/t/u/p", "%",
                     "IUPO m/t/u/p", "%", "(IUP)O m/t/u/p", "%",
                     "(IUPO) m/t/u/p", "%"});

    std::vector<double> sums(configs.size(), 0.0);
    size_t count = 0;

    // Figure 7 feed: (block count reduction, cycle count reduction).
    std::printf("# table1: cycle-count improvement over BB by phase "
                "ordering (breadth-first policy)\n");

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
                entry.name + "/" + configs[c].label);
            double pct =
                improvementPct(bb.timing.cycles, run.timing.cycles);
            sums[c] += pct;
            row.push_back(mtup(run.stats));
            row.push_back(TextTable::pct(pct));
        }
        table.addRow(row);
        ++count;
    }

    table.addSeparator();
    std::vector<std::string> avg = {"Average", ""};
    for (size_t c = 0; c < configs.size(); ++c) {
        avg.push_back("");
        avg.push_back(TextTable::pct(sums[c] / count));
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
