/**
 * @file
 * Long-campaign driver for the differential fuzz harness
 * (src/workloads/fuzz_harness.h): generated TinyC programs, each
 * compiled through a chf::Session under the full policy × fault ×
 * thread matrix and checked against the unoptimized simulator oracle
 * plus the byte-identity contracts (cold vs warm failed-trial memo
 * included).
 *
 * Run: ./fuzz_differential                       (500-program campaign)
 *      ./fuzz_differential --count=N --seed=S    (custom campaign)
 *      ./fuzz_differential --smoke               (reduced matrix)
 *      ./fuzz_differential --gen=seed:S,shape:X  (replay one failure)
 *
 * Flags:
 *   --seed=S      first seed (default 1; program i uses seed S+i)
 *   --count=N     programs to run, at least 1 (default 500)
 *   --smoke       use the reduced smoke matrix (tier-1 budget)
 *   --no-shrink   report the original failing shape, don't reduce it
 *   --quiet       no per-program progress lines
 *   --gen=SPEC    check exactly one (seed, shape) from a spec string
 *                 (the reproducer a failing campaign prints)
 *
 * Exit status: 0 when every cell of every program matches, 1 on the
 * first (shrunk) failure after printing its one-line repro, and 1
 * with the usage line on an unknown flag or a --seed or --count that
 * is not a whole number in range.
 */

#include <cstdio>
#include <cstring>
#include <iostream>

#include "support/parse_int.h"
#include "workloads/fuzz_harness.h"
#include "workloads/generator.h"

using namespace chf;

namespace {

int
reportFailure(const FuzzFailure &failure)
{
    std::fprintf(stderr,
                 "\nFUZZ FAILURE\n"
                 "  spec:   %s\n"
                 "  config: %s\n"
                 "  detail: %s\n"
                 "  repro:  %s\n",
                 genSpecString(failure.seed, failure.shape).c_str(),
                 failure.config.c_str(), failure.detail.c_str(),
                 failure.repro.c_str());
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t first_seed = 1;
    int count = 500;
    bool smoke = false;
    bool shrink = true;
    bool quiet = false;
    std::string gen_spec;

    for (int i = 1; i < argc; ++i) {
        bool ok = true;
        if (std::strncmp(argv[i], "--seed=", 7) == 0) {
            ok = parseInteger(argv[i] + 7, &first_seed);
        } else if (std::strncmp(argv[i], "--count=", 8) == 0) {
            ok = parseAtLeast(argv[i] + 8, 1, &count);
        } else if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--no-shrink") == 0) {
            shrink = false;
        } else if (std::strcmp(argv[i], "--quiet") == 0) {
            quiet = true;
        } else if (std::strncmp(argv[i], "--gen=", 6) == 0) {
            gen_spec = argv[i] + 6;
        } else {
            ok = false;
        }
        if (!ok) {
            std::fprintf(stderr,
                         "usage: %s [--seed=S] [--count=N] [--smoke] "
                         "[--no-shrink] [--quiet] "
                         "[--gen=seed:S,shape:X,...]\n",
                         argv[0]);
            return 1;
        }
    }

    std::vector<FuzzConfig> configs =
        smoke ? fuzzSmokeMatrix() : fuzzFullMatrix();

    if (!gen_spec.empty()) {
        uint64_t seed = 0;
        GeneratorShape shape;
        std::string err;
        if (!parseGenSpec(gen_spec, &seed, &shape, &err)) {
            std::fprintf(stderr, "bad --gen spec: %s\n", err.c_str());
            return 1;
        }
        std::optional<FuzzFailure> failure =
            fuzzOneProgram(seed, shape, configs, shrink);
        if (failure)
            return reportFailure(*failure);
        std::fprintf(stderr, "ok: %s passes all %zu configs\n",
                     gen_spec.c_str(), configs.size());
        return 0;
    }

    FuzzReport report =
        runFuzzCampaign(first_seed, count, configs, shrink,
                        quiet ? nullptr : &std::cerr);
    if (!report.passed())
        return reportFailure(*report.failure);
    std::fprintf(stderr,
                 "campaign clean: %d programs x %zu configs "
                 "(%d cells), zero mismatches\n",
                 report.programs, configs.size(), report.configsRun);
    return 0;
}
