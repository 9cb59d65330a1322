/**
 * @file
 * Reproduces Table 3: percent improvement in *blocks executed* over
 * basic blocks for the SPEC-like suite under the functional simulator
 * (the paper uses block counts because cycle-level simulation of full
 * SPEC is too slow; §7.3 establishes the correlation).
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

    const std::vector<std::pair<const char *, Pipeline>> configs = {
        {"UPIO", Pipeline::UPIO},
        {"IUPO", Pipeline::IUPO},
        {"(IUP)O", Pipeline::IUP_O},
        {"(IUPO)", Pipeline::IUPO_fused},
    };

    // Phase A (sequential): build, prepare, record oracles, queue one
    // unit per (workload, ordering) pair plus the BB baseline.
    struct Entry
    {
        std::string name;
        FuncSimResult oracle;
        size_t bbUnit = 0;
        std::vector<size_t> units;
    };
    std::vector<Entry> entries;

    Session session(SessionOptions().withThreads(threads));
    for (const auto &workload : speclikeBenchmarks()) {
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
                SessionOptions().withPipeline(config.second)));
        }
        entries.push_back(std::move(entry));
    }

    // Phase B: compile the whole batch (possibly in parallel).
    session.compile();

    // Phase C (sequential): simulate and render in workload order.
    TextTable table;
    table.setHeader({"benchmark", "BB blocks", "UPIO %", "IUPO %",
                     "(IUP)O %", "(IUPO) %"});

    std::vector<double> sums(configs.size(), 0.0);
    size_t count = 0;

    std::printf("# table3: block-count improvement over BB on the "
                "SPEC-like suite (functional simulator)\n");

    for (const Entry &entry : entries) {
        FuncSimResult bb = runFunctional(session.program(entry.bbUnit));

        std::vector<std::string> row;
        row.push_back(entry.name);
        row.push_back(std::to_string(bb.blocksExecuted));

        for (size_t c = 0; c < configs.size(); ++c) {
            FuncSimResult run =
                runFunctional(session.program(entry.units[c]));
            if (run.returnValue != entry.oracle.returnValue ||
                run.memoryHash != entry.oracle.memoryHash) {
                fatal(concat("semantics changed for ", entry.name,
                             " under ", configs[c].first));
            }
            double pct = improvementPct(bb.blocksExecuted,
                                        run.blocksExecuted);
            sums[c] += pct;
            row.push_back(TextTable::pct(pct));
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
    std::printf("\nheadline: block-count reduction averages UPIO "
                "%+.1f%%, IUPO %+.1f%%, (IUP)O %+.1f%%, (IUPO) %+.1f%% "
                "(paper: 48.1 / 49.9 / 50.7 / 51.8)\n",
                sums[0] / count, sums[1] / count, sums[2] / count,
                sums[3] / count);
    return 0;
}
