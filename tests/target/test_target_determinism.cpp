/**
 * @file
 * Target-model determinism matrix: for every registry target, batch
 * compilation through chf::Session must produce byte-identical asm and
 * diagnostics whatever the thread count and whether the failed-trial
 * memo is cold (cleared) or warm — the same contract DESIGN.md §9/§10
 * pin for the TRIPS model, extended over the target registry (§13).
 * Run via the `target_determinism` ctest (label "target");
 * scripts/check_targets.sh runs the label under ASan.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "backend/asm_writer.h"
#include "hyperblock/merge.h"
#include "pipeline/session.h"
#include "workloads/workloads.h"

namespace chf {
namespace {

/** Per-unit asm plus the merged diagnostic stream of one batch. */
struct BatchOutput
{
    std::vector<std::string> asmText;
    std::string diagText;
};

/** Compile a 3-workload batch for @p target; @p cold clears the
 *  failed-trial memo first. */
BatchOutput
compileBatch(const std::string &target, int threads, bool cold)
{
    const char *const names[] = {"sieve", "bzip2_3", "parser_1"};

    if (cold)
        clearTrialMemo();
    Session session(SessionOptions()
                        .withTarget(target)
                        .withThreads(threads)
                        .withKeepGoing(true));
    for (const char *name : names) {
        const Workload *workload = findWorkload(name);
        EXPECT_NE(workload, nullptr) << name;
        Program program = buildWorkload(*workload);
        ProfileData profile = prepareProgram(program);
        session.addProgram(std::move(program), std::move(profile),
                           name);
    }
    SessionResult result = session.compile();

    BatchOutput out;
    for (size_t unit = 0; unit < session.size(); ++unit)
        out.asmText.push_back(
            writeFunctionAsm(session.program(unit).fn));
    out.diagText = result.diagnostics.toString();
    return out;
}

class TargetDeterminism
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(TargetDeterminism, ThreadsAndMemoWarmthAreByteInvisible)
{
    // The reference runs cold at 1 thread; the probes run warm (the
    // memo holds the reference's failed trials) or cold again.
    const std::string target = GetParam();
    BatchOutput reference = compileBatch(target, 1, true);

    const std::pair<int, bool> configs[] = {
        {4, false}, {1, false}, {4, true}};
    for (const auto &[threads, cold] : configs) {
        BatchOutput probe = compileBatch(target, threads, cold);
        ASSERT_EQ(probe.asmText.size(), reference.asmText.size());
        for (size_t unit = 0; unit < reference.asmText.size(); ++unit) {
            EXPECT_EQ(probe.asmText[unit], reference.asmText[unit])
                << target << " unit " << unit << " threads=" << threads
                << " cold=" << cold;
        }
        EXPECT_EQ(probe.diagText, reference.diagText)
            << target << " threads=" << threads << " cold=" << cold;
    }
}

INSTANTIATE_TEST_SUITE_P(Registry, TargetDeterminism,
                         ::testing::Values("trips", "trips-wide",
                                           "small-block", "deep-lsq"),
                         [](const auto &info) {
                             std::string name = info.param;
                             for (char &c : name)
                                 if (c == '-')
                                     c = '_';
                             return name;
                         });

TEST(TargetDeterminismCross, TargetsActuallyDiverge)
{
    // The matrix above would pass trivially if every target compiled
    // to the same bytes; pin that the registry geometries genuinely
    // change formation.
    BatchOutput trips = compileBatch("trips", 1, false);
    BatchOutput small = compileBatch("small-block", 1, false);
    bool any_differ = false;
    for (size_t unit = 0; unit < trips.asmText.size(); ++unit)
        any_differ |= trips.asmText[unit] != small.asmText[unit];
    EXPECT_TRUE(any_differ);
}

} // namespace
} // namespace chf
