/**
 * @file
 * perfbench — the end-to-end benchmark of the compiler and the
 * chf_serve daemon.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--serve-bin PATH] [--out-dir DIR]
 *
 * Workloads: synth64, gen_batch, kernels, serve (perfbench/README.md).
 * Untraced runs report the end-to-end metrics, traced runs the
 * per-layer metrics and a Chrome trace-event JSON in --out-dir. The last
 * line of standard output is one JSON object:
 *
 *   {"correct":true,"attempted":N,"failed":0,"metrics":{...}}
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

using namespace perfbench;

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload synth64|gen_batch|kernels|"
                 "serve --seed N --seconds S --trace 0|1 "
                 "[--serve-bin PATH] [--out-dir DIR]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    opts.outDir = ".";
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        if (flag == "--workload")
            opts.workload = value;
        else if (flag == "--seed")
            opts.seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--seconds")
            opts.seconds = std::atof(value);
        else if (flag == "--trace")
            opts.trace = std::strcmp(value, "0") != 0;
        else if (flag == "--serve-bin")
            opts.serveBinary = value;
        else if (flag == "--out-dir")
            opts.outDir = value;
        else
            return usage(("unknown flag " + flag).c_str());
    }
    if (argc % 2 == 0)
        return usage("every flag takes a value");
    if (opts.seconds <= 0)
        return usage("--seconds wants a positive number");

    RunResult out;
    if (opts.workload == "synth64")
        runSynth64(opts, out);
    else if (opts.workload == "gen_batch")
        runGenBatch(opts, out);
    else if (opts.workload == "kernels")
        runKernels(opts, out);
    else if (opts.workload == "serve")
        runServe(opts, out);
    else
        return usage(("unknown workload '" + opts.workload + "'").c_str());

    if (out.attempted == 0) {
        out.attempted = 1;
        if (out.failed == 0)
            out.fail("no unit was checked");
    }
    for (Metric &m : out.metrics) {
        if (!std::isfinite(m.value)) {
            out.fail(m.name + " is not a finite number");
            m.value = 0.0;
        }
    }
    const double error_rate = static_cast<double>(out.failed) /
                              static_cast<double>(out.attempted);
    std::printf("workload %s seed %llu trace %d\n", opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed),
                opts.trace ? 1 : 0);
    for (const std::string &line : out.notes)
        std::printf("%s\n", line.c_str());
    std::printf("metric error_rate = %s ratio\n", fmt(error_rate).c_str());
    for (const Metric &m : out.metrics)
        std::printf("%-28s %s %s\n", m.name.c_str(), fmt(m.value).c_str(),
                    m.unit.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                out.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));
    for (size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric &m = out.metrics[i];
        std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), fmt(m.value).c_str(),
                    m.unit.c_str());
    }
    std::printf("}}\n");
    return 0;
}
