/**
 * @file
 * Target sweep: the AutoTuner run across the synthetic target registry.
 *
 * For each registry target (trips, trips-wide, small-block, deep-lsq)
 * and a handful of microbenchmark workloads, run the budget-governed
 * policy/knob search and write every Pareto report to
 * BENCH_target_sweep.json. The report is deterministic by contract —
 * no wall-clock fields, fixed candidate order — so the JSON is
 * byte-identical across runs and thread counts.
 *
 * Flags:
 *  - --threads=N: Session worker threads per tuner batch (default 1).
 *  - --smoke: determinism gate for ctest. Runs the sweep twice at one
 *    thread and asserts the JSON matches, then (on machines with at
 *    least 4 hardware threads) re-runs at 4 threads and asserts that
 *    matches too. Writes no file.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "../bench/harness.h"
#include "tuner/auto_tuner.h"

using namespace chf;
using namespace chf::bench;

namespace {

const std::vector<std::string> kWorkloads = {"vadd", "matrix_1",
                                             "sieve"};

/** One full sweep: every registry target × every workload. */
std::string
runSweep(int threads)
{
    std::string out = "{\"targets\":[";
    bool first_target = true;
    for (const TargetModel &target : targetRegistry()) {
        if (!first_target)
            out += ",";
        first_target = false;
        out += "{\"target\":\"" + target.name + "\",\"reports\":[";
        bool first_report = true;
        for (const std::string &name : kWorkloads) {
            const Workload *workload = findWorkload(name);
            if (!workload)
                fatal(concat("unknown workload ", name));
            Program prepared = buildWorkload(*workload);
            ProfileData profile = prepareProgram(prepared);

            TunerOptions opts;
            opts.baseTarget = target;
            opts.maxInstsGrid = {target.maxInsts / 2, target.maxInsts};
            opts.threads = threads;
            opts.maxTrials = 16;
            TunerReport report =
                AutoTuner(opts).tune(prepared, profile);

            if (!first_report)
                out += ",";
            first_report = false;
            out += report.toJson(name);
        }
        out += "]}";
    }
    out += "]}";
    return out;
}

int
runSmoke()
{
    std::string first = runSweep(1);
    std::string second = runSweep(1);
    if (first != second) {
        std::fprintf(stderr, "target_sweep: two sequential sweeps "
                             "produced different JSON\n");
        return 1;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw < 4) {
        // On fewer than 4 cores a 4-thread session measures scheduler
        // contention, not determinism worth gating on; the 1-thread
        // repeat above already covers the report contract.
        std::fprintf(stderr,
                     "target_sweep: %u hardware threads; 4-thread "
                     "determinism comparison skipped\n",
                     hw);
        return 0;
    }
    std::string parallel = runSweep(4);
    if (first != parallel) {
        std::fprintf(stderr, "target_sweep: 4-thread sweep diverged "
                             "from sequential JSON\n");
        return 1;
    }
    std::fprintf(stderr, "target_sweep: deterministic across runs and "
                         "thread counts\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--smoke") == 0)
            return runSmoke();

    int threads = parseThreadsFlag(argc, argv, "[--smoke | --threads=N]");
    std::string json = runSweep(threads);

    const char *path = "BENCH_target_sweep.json";
    std::ofstream f(path);
    f << json << "\n";
    std::printf("# target sweep: %zu registry targets x %zu workloads "
                "-> %s\n",
                targetRegistry().size(), kWorkloads.size(), path);
    return 0;
}
