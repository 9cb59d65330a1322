/**
 * @file
 * Differential fuzz gate over the seeded TinyC generator
 * (src/workloads/generator.h + fuzz_harness.h).
 *
 * The smoke campaign here is the tier-1 `fuzz_differential_smoke`
 * ctest target (≤30s): a handful of generated programs through the
 * reduced config matrix, every cell checked against the unoptimized
 * simulator oracle and the byte-identity contracts. Long campaigns
 * run through the `fuzz_differential` example binary; any failure it
 * prints is reproducible here by pasting the spec into
 * FuzzReproFromSpec below (or on the CLI via --gen=).
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "workloads/fuzz_harness.h"
#include "workloads/generator.h"

namespace chf {
namespace {

/** Number of cells that share a determinism group with an earlier
 *  cell: each one runs on a warm memo and is compared byte-for-byte
 *  with its group's first (cold) cell. */
size_t
warmComparisons(const std::vector<FuzzConfig> &matrix)
{
    std::set<std::string> groups;
    for (const FuzzConfig &config : matrix)
        groups.insert(config.determinismGroup());
    return matrix.size() - groups.size();
}

/** True when every determinism group's cells are adjacent. */
bool
groupsContiguous(const std::vector<FuzzConfig> &matrix)
{
    std::set<std::string> closed;
    for (size_t i = 0; i < matrix.size(); ++i) {
        const std::string group = matrix[i].determinismGroup();
        if (closed.count(group))
            return false;
        if (i + 1 == matrix.size() ||
            matrix[i + 1].determinismGroup() != group)
            closed.insert(group);
    }
    return true;
}

TEST(FuzzMatrix, FullMatrixCoversEveryAxisCombination)
{
    std::vector<FuzzConfig> matrix = fuzzFullMatrix();
    EXPECT_EQ(matrix.size(), 16u); // 4 policies x 2 faults x 2 threads

    // Labels are unique (the repro message names exactly one cell).
    std::set<std::string> labels;
    for (const FuzzConfig &config : matrix)
        labels.insert(config.label());
    EXPECT_EQ(labels.size(), matrix.size());

    // Thread count must not change the determinism group; policy and
    // fault must. Each group is one cold cell then one warm cell.
    std::set<std::string> groups;
    for (const FuzzConfig &config : matrix)
        groups.insert(config.determinismGroup());
    EXPECT_EQ(groups.size(), 8u); // 4 policies x 2 fault modes
    EXPECT_TRUE(groupsContiguous(matrix));
    EXPECT_EQ(warmComparisons(matrix), 8u);
}

TEST(FuzzMatrix, SmokeMatrixExercisesEveryAxis)
{
    std::vector<FuzzConfig> matrix = fuzzSmokeMatrix();
    EXPECT_EQ(matrix.size(), 6u);
    bool multiThread = false, faulted = false;
    for (const FuzzConfig &config : matrix) {
        multiThread |= config.threads > 1;
        faulted |= config.faultCorruptIr;
    }
    EXPECT_TRUE(multiThread);
    EXPECT_TRUE(faulted);
    EXPECT_TRUE(groupsContiguous(matrix));
    EXPECT_GT(warmComparisons(matrix), 0u);
}

/** The tier-1 smoke campaign: seeds 1..N across the preset rotation,
 *  reduced matrix, shrink enabled so a regression prints its minimal
 *  reproducer right in the test log. */
TEST(FuzzDifferential, SmokeCampaignMatchesOracleEverywhere)
{
    FuzzReport report =
        runFuzzCampaign(/*first_seed=*/1, /*count=*/8,
                        fuzzSmokeMatrix(), /*shrink=*/true);
    if (!report.passed()) {
        FAIL() << "config: " << report.failure->config
               << "\ndetail: " << report.failure->detail
               << "\nrepro:  " << report.failure->repro;
    }
    EXPECT_EQ(report.programs, 8);
}

/** One program through the full 16-cell matrix, so tier-1 touches
 *  every axis combination at least once. */
TEST(FuzzDifferential, FullMatrixOnOneProgram)
{
    GeneratorShape shape;
    ASSERT_TRUE(namedShape("irreducible", &shape));
    std::optional<FuzzFailure> failure =
        fuzzOneProgram(/*seed=*/7, shape, fuzzFullMatrix(),
                       /*shrink=*/true);
    if (failure) {
        FAIL() << "config: " << failure->config
               << "\ndetail: " << failure->detail
               << "\nrepro:  " << failure->repro;
    }
}

/** Paste a failing spec here to replay it under the debugger. */
TEST(FuzzDifferential, FuzzReproFromSpec)
{
    const char *const spec = "seed:1,shape:default";
    uint64_t seed = 0;
    GeneratorShape shape;
    std::string err;
    ASSERT_TRUE(parseGenSpec(spec, &seed, &shape, &err)) << err;
    std::optional<FuzzFailure> failure =
        fuzzOneProgram(seed, shape, fuzzSmokeMatrix(),
                       /*shrink=*/false);
    if (failure) {
        FAIL() << "config: " << failure->config
               << "\ndetail: " << failure->detail
               << "\nrepro:  " << failure->repro;
    }
}

/** The campaign driver stops at the first failure and reports it with
 *  a repro line (exercised here via an impossible oracle: a config
 *  list is never empty in real use, so use a tiny real campaign). */
TEST(FuzzDifferential, CampaignReportsProgress)
{
    std::ostringstream log;
    FuzzReport report = runFuzzCampaign(
        /*first_seed=*/42, /*count=*/2, fuzzSmokeMatrix(),
        /*shrink=*/false, &log);
    EXPECT_TRUE(report.passed()) << report.failure->detail;
    EXPECT_EQ(report.programs, 2);
    EXPECT_NE(log.str().find("seed=42"), std::string::npos);
    EXPECT_NE(log.str().find("[2/2]"), std::string::npos);
}

} // namespace
} // namespace chf
