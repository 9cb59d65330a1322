/**
 * @file
 * Differential formation tests: running convergent formation with the
 * analysis cache on must make exactly the same merge decisions -- and
 * produce exactly the same IR -- as running it with the cache off
 * (every analysis rebuilt fresh per query), and the same holds for the
 * trial-merge fast path (scratch arena + failed-trial memo + size
 * pre-screen, CHF_TRIAL_CACHE / MergeOptions::useTrialCache). This is
 * the executable form of both bit-identical-results contracts.
 *
 * The matrix tests push the same contract through the Session driver:
 * trial cache on/off x policy x fault injection must produce
 * byte-identical asm, merge behavior, and diagnostics, at 1 and 4
 * worker threads.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <tuple>

#include "backend/asm_writer.h"
#include "hyperblock/convergent.h"
#include "hyperblock/merge.h"
#include "hyperblock/phase_ordering.h"
#include "ir/printer.h"
#include "pipeline/session.h"
#include "transform/cfg_utils.h"
#include "transform/if_convert.h"
#include "transform/optimize.h"
#include "workloads/workloads.h"

namespace chf {
namespace {

struct FormationRun
{
    std::string ir;
    std::vector<MergeTraceEntry> trace;
    int64_t merges = 0;
    int64_t memoHits = 0;
    int64_t prescreened = 0;
    uint32_t finalVregs = 0;
};

/**
 * Compile @p source, prepare it (profile + for-loop unroll, as the real
 * pipeline does), then form hyperblocks over every seed while recording
 * the merge trace.
 */
FormationRun
runFormation(const std::string &source, bool use_cache,
             bool block_splitting, bool use_trial_cache,
             size_t max_insts = 0)
{
    Program p = Session::frontend(source);
    prepareProgram(p);

    MergeOptions opts;
    opts.useAnalysisCache = use_cache;
    opts.useTrialCache = use_trial_cache;
    opts.recordMergeTrace = true;
    opts.enableBlockSplitting = block_splitting;
    if (max_insts > 0)
        opts.target.maxInsts = max_insts;
    MergeEngine engine(p.fn, opts);
    BreadthFirstPolicy policy;
    for (BlockId seed : p.fn.reversePostOrder()) {
        if (p.fn.block(seed))
            expandBlock(engine, policy, seed);
    }
    p.fn.removeUnreachable();

    FormationRun run;
    run.ir = toString(p.fn);
    run.trace = engine.trace();
    run.merges = engine.stats().get("blocksMerged");
    run.memoHits = engine.stats().get("trialsMemoHit");
    run.prescreened = engine.stats().get("trialsPrescreened");
    run.finalVregs = p.fn.numVregs();
    return run;
}

void
expectSameRun(const FormationRun &a, const FormationRun &b,
              const char *what)
{
    ASSERT_EQ(a.trace.size(), b.trace.size()) << what;
    for (size_t i = 0; i < a.trace.size(); ++i) {
        EXPECT_EQ(a.trace[i], b.trace[i])
            << what << ": merge decision " << i << " diverged: bb"
            << a.trace[i].hb << "<-bb" << a.trace[i].s << " ("
            << a.trace[i].reason << ") vs bb" << b.trace[i].hb
            << "<-bb" << b.trace[i].s << " (" << b.trace[i].reason
            << ")";
    }
    EXPECT_EQ(a.merges, b.merges) << what;
    EXPECT_EQ(a.finalVregs, b.finalVregs) << what;
    EXPECT_EQ(a.ir, b.ir) << what;
}

void
expectIdenticalFormation(const std::string &source, bool block_splitting)
{
    // 2x2: analysis cache x trial fast path. Every combination must
    // make the same decisions, burn the same registers, and emit the
    // same IR as the fully-uncached reference.
    FormationRun reference =
        runFormation(source, false, block_splitting, false);
    expectSameRun(runFormation(source, true, block_splitting, false),
                  reference, "analysis cache");
    expectSameRun(runFormation(source, false, block_splitting, true),
                  reference, "trial cache");
    expectSameRun(runFormation(source, true, block_splitting, true),
                  reference, "both caches");
    EXPECT_GT(reference.merges, 0);
}

TEST(MergeTraceDifferential, DiamondChain)
{
    expectIdenticalFormation(R"(
int main() {
  int acc = 0;
  for (int i = 0; i < 16; i += 1) {
    int t = i * 5;
    if ((t & 1) == 1) { acc += t; } else { acc -= i; }
    if ((t & 6) == 2) { acc += 3; }
  }
  return acc;
}
)",
                             false);
}

TEST(MergeTraceDifferential, NestedLoops)
{
    expectIdenticalFormation(R"(
int main() {
  int acc = 0;
  for (int i = 0; i < 6; i += 1) {
    int j = 0;
    while (j < 5) {
      acc += i & j;
      if (acc > 40) { acc -= 7; }
      j += 1;
    }
    acc += i;
  }
  return acc;
}
)",
                             false);
}

TEST(MergeTraceDifferential, DoWhileWithBreaks)
{
    expectIdenticalFormation(R"(
int main() {
  int n = 37;
  int steps = 0;
  do {
    if ((n & 1) == 1) { n = n * 3 + 1; } else { n = n / 2; }
    steps += 1;
    if (steps > 200) { break; }
  } while (n > 1);
  return steps;
}
)",
                             false);
}

TEST(MergeTraceDifferential, ArraysWithBlockSplitting)
{
    expectIdenticalFormation(R"(
int data[64];
int main() {
  int acc = 0;
  for (int i = 0; i < 64; i += 1) { data[i] = i * 7 % 31; }
  for (int i = 0; i < 64; i += 1) {
    int v = data[i];
    acc += v * 3; acc -= v / 2; acc += v & 12; acc += v | 3;
    acc += v % 5; acc -= v >> 1; acc += v * v; acc -= i;
    if ((v & 2) == 2) { acc += 11; }
  }
  return acc;
}
)",
                             true);
}

TEST(MergeTraceDifferential, EnvVarDisablesCache)
{
    // CHF_DISABLE_ANALYSIS_CACHE=1 must force fresh analyses even when
    // the options ask for caching.
    Program p = Session::frontend("int main() { return 4; }");
    setenv("CHF_DISABLE_ANALYSIS_CACHE", "1", 1);
    {
        MergeOptions opts;
        opts.useAnalysisCache = true;
        MergeEngine engine(p.fn, opts);
        EXPECT_FALSE(engine.analyses().cachingEnabled());
    }
    unsetenv("CHF_DISABLE_ANALYSIS_CACHE");
    {
        MergeOptions opts;
        opts.useAnalysisCache = true;
        MergeEngine engine(p.fn, opts);
        EXPECT_TRUE(engine.analyses().cachingEnabled());
    }
}

TEST(MergeTraceDifferential, EnvVarDisablesTrialCache)
{
    Program p = Session::frontend("int main() { return 4; }");
    setenv("CHF_TRIAL_CACHE", "0", 1);
    {
        MergeOptions opts;
        MergeEngine engine(p.fn, opts);
        EXPECT_FALSE(engine.fastPathActive());
    }
    unsetenv("CHF_TRIAL_CACHE");
    {
        MergeOptions opts;
        MergeEngine engine(p.fn, opts);
        EXPECT_TRUE(engine.fastPathActive());
    }
    {
        MergeOptions opts;
        opts.useTrialCache = false;
        MergeEngine engine(p.fn, opts);
        EXPECT_FALSE(engine.fastPathActive());
    }
}

// ----- trial fast-path internals -----

/**
 * The memo replays the exact register burn of the combine it skips, so
 * combineVregCost must predict combineBlocks' allocations exactly --
 * for every structurally-mergeable pair, not just the ones formation
 * happens to pick.
 */
TEST(TrialFastPath, CombineVregCostIsExact)
{
    const char *sources[] = {
        R"(
int main() {
  int acc = 0;
  for (int i = 0; i < 16; i += 1) {
    if ((i & 1) == 1) { acc += i; } else { acc -= 1; }
    if ((i & 6) == 2) { acc += 3; }
  }
  return acc;
}
)",
        R"(
int data[16];
int main() {
  int acc = 0;
  int i = 0;
  do {
    data[i] = acc;
    if (acc > 9) { acc -= 7; } else { acc += i; }
    i += 1;
  } while (i < 16);
  return acc + data[3];
}
)",
    };

    size_t pairs_checked = 0;
    for (const char *source : sources) {
        Program p = Session::frontend(source);
        prepareProgram(p);
        for (BlockId hb = 0; hb < p.fn.blockTableSize(); ++hb) {
            for (BlockId s = 0; s < p.fn.blockTableSize(); ++s) {
                const BasicBlock *hb_block = p.fn.block(hb);
                const BasicBlock *s_block = p.fn.block(s);
                if (!hb_block || !s_block || s == p.fn.entry())
                    continue;
                if (branchesTo(*hb_block, s).empty())
                    continue;
                Function copy = p.fn.clone();
                BasicBlock scratch(hb_block->id(), hb_block->name());
                scratch.assignFrom(*hb_block);
                BasicBlock source_copy(s_block->id(), s_block->name());
                source_copy.assignFrom(*s_block);
                uint32_t before = copy.numVregs();
                ASSERT_TRUE(combineBlocks(copy, scratch, source_copy,
                                          0.5));
                EXPECT_EQ(copy.numVregs() - before,
                          combineVregCost(*hb_block, *s_block))
                    << "bb" << hb << " <- bb" << s;
                ++pairs_checked;
            }
        }
    }
    EXPECT_GT(pairs_checked, 10u);
}

TEST(TrialFastPath, MemoHitsAcrossIdenticalCompiles)
{
    // The failed-trial store is process-wide and content-addressed, so
    // a second formation of an identical program must answer its
    // failed trials from the memo -- with a byte-identical result.
    const char *source = R"(
int main() {
  int acc = 0;
  for (int i = 0; i < 32; i += 1) {
    int t = i * 3;
    if ((t & 1) == 1) { acc += t; } else { acc -= i; }
    acc += t & 7; acc -= t >> 2; acc += t * t; acc += t | 5;
    acc -= t & 3; acc += t % 9; acc -= t / 3; acc += i;
  }
  return acc;
}
)";
    FormationRun first = runFormation(source, true, false, true);
    FormationRun second = runFormation(source, true, false, true);
    expectSameRun(second, first, "memoized re-run");

    bool any_failure = false;
    for (const MergeTraceEntry &e : first.trace)
        any_failure |= !e.success;
    ASSERT_TRUE(any_failure) << "test program produced no failed "
                                "trials; memo cannot be exercised";
    EXPECT_GT(second.memoHits, 0);
}

TEST(TrialFastPath, MemoStoreStatsAreExposed)
{
    // The sharded store's counters account every lookup: hits + misses
    // grow, and the Session reports the same activity as per-compile
    // deltas.
    Program program = Session::frontend(R"(
int data[32];
int main() {
  int acc = 0;
  for (int i = 0; i < 24; i += 1) {
    int t = i * 5;
    if ((t & 1) == 1) { acc += t; } else { acc -= i; }
    if ((t & 6) == 2) { acc += 3; } else { acc = acc ^ t; }
    if ((t & 12) == 4) { acc -= 9; }
    data[i & 31] = acc;
  }
  return acc;
}
)");
    ProfileData profile = prepareProgram(program);

    const TrialMemoStats before = trialMemoStats();
    EXPECT_GT(before.shards, 0u);
    EXPECT_GT(before.capacity, 0u);
    EXPECT_EQ(before.capacity % before.shards, 0u);

    Session session{SessionOptions().withBackend(false)};
    session.addProgramRef(program, profile);
    SessionResult result = session.compile(1);

    const TrialMemoStats after = trialMemoStats();
    EXPECT_GE(after.hits, before.hits);
    EXPECT_GE(after.misses, before.misses);
    EXPECT_GE(after.entries, before.entries);
    EXPECT_GE(after.maxShardEntries, before.maxShardEntries);
    EXPECT_LE(after.maxShardEntries, after.entries);

    EXPECT_EQ(result.totals.get("trialMemoStoreHits"),
              static_cast<int64_t>(after.hits - before.hits));
    EXPECT_EQ(result.totals.get("trialMemoStoreMisses"),
              static_cast<int64_t>(after.misses - before.misses));
    EXPECT_EQ(result.totals.get("trialMemoStoreEntries"),
              static_cast<int64_t>(after.entries));
    EXPECT_EQ(result.totals.get("trialMemoStoreMaxShard"),
              static_cast<int64_t>(after.maxShardEntries));
}

TEST(TrialFastPath, PrescreenFiresAndStaysIdentical)
{
    // Tight maxInsts: the combined block provably exceeds the limit
    // from the branches+stores floor alone, so the pre-screen rejects
    // without running combine+optimize -- with the same reason string
    // and register burn as the full trial.
    const char *source = R"(
int data[32];
int main() {
  int acc = 0;
  for (int i = 0; i < 32; i += 1) {
    data[i] = acc;
    data[(i + 7) & 31] = acc + i;
    data[(i + 3) & 31] = acc - i;
    data[(i + 9) & 31] = acc ^ i;
    data[(i + 13) & 31] = acc + 2 * i;
    data[(i + 21) & 31] = acc - 3 * i;
    if ((i & 1) == 1) { acc += i; }
  }
  return acc + data[5];
}
)";
    FormationRun fast = runFormation(source, true, false, true, 12);
    FormationRun slow = runFormation(source, true, false, false, 12);
    expectSameRun(fast, slow, "pre-screen");
    EXPECT_GT(fast.prescreened, 0);
    EXPECT_EQ(slow.prescreened, 0);
}

/**
 * Pins the pre-screen's floor formula and its intended firing
 * condition (trialSizeFloor + sizeHeadroom > target.maxInsts). The
 * floor counts only the instructions no legal trial can shed -- every
 * branch and store of both participants, minus the HB branches the
 * combine consumes; with optimizeDuringMerge off nothing can be shed,
 * so it counts everything. Because branches+stores rarely approach the
 * TRIPS budget of 128, the pre-screen is NOT expected to fire at the
 * default target (this is why BENCH_pass_speed.json records
 * trials_prescreened == 0); it exists for small-block targets and
 * reduced maxInsts, where PrescreenFiresAndStaysIdentical shows it
 * firing.
 */
TEST(TrialFastPath, SizeFloorFormulaAndFiringCondition)
{
    const char *source = R"(
int data[32];
int main() {
  int acc = 0;
  for (int i = 0; i < 32; i += 1) {
    data[i] = acc;
    data[(i + 7) & 31] = acc + i;
    data[(i + 3) & 31] = acc - i;
    data[(i + 9) & 31] = acc ^ i;
    data[(i + 13) & 31] = acc + 2 * i;
    data[(i + 21) & 31] = acc - 3 * i;
    if ((i & 1) == 1) { acc += i; } else { acc -= 3; }
    if ((i & 6) == 2) { acc += data[i & 15]; }
  }
  return acc + data[5];
}
)";
    Program p = Session::frontend(source);
    prepareProgram(p);

    for (bool optimize_during_merge : {true, false}) {
        MergeOptions opts;
        opts.optimizeDuringMerge = optimize_during_merge;
        MergeEngine engine(p.fn, opts);

        size_t pairs_checked = 0;
        for (BlockId hb = 0; hb < p.fn.blockTableSize(); ++hb) {
            for (BlockId s = 0; s < p.fn.blockTableSize(); ++s) {
                const BasicBlock *hb_block = p.fn.block(hb);
                const BasicBlock *s_block = p.fn.block(s);
                if (!hb_block || !s_block || s == p.fn.entry())
                    continue;
                if (branchesTo(*hb_block, s).empty())
                    continue;

                // The documented formula, computed independently.
                size_t expected = 0;
                for (const Instruction &inst : hb_block->insts) {
                    if (inst.op == Opcode::Br && inst.target == s)
                        continue; // consumed by the combine
                    if (!optimize_during_merge || inst.isBranch() ||
                        inst.op == Opcode::Store)
                        ++expected;
                }
                for (const Instruction &inst : s_block->insts) {
                    if (!optimize_during_merge || inst.isBranch() ||
                        inst.op == Opcode::Store)
                        ++expected;
                }
                size_t floor = engine.trialSizeFloor(*hb_block, *s_block);
                EXPECT_EQ(floor, expected)
                    << "bb" << hb << " <- bb" << s
                    << " optimizeDuringMerge=" << optimize_during_merge;

                // Lower-bound property: even with an empty live-out
                // (DCE removes the maximum), the optimized combined
                // block never drops below the floor.
                Function copy = p.fn.clone();
                BasicBlock scratch(hb_block->id(), hb_block->name());
                scratch.assignFrom(*hb_block);
                BasicBlock source_copy(s_block->id(), s_block->name());
                source_copy.assignFrom(*s_block);
                ASSERT_TRUE(
                    combineBlocks(copy, scratch, source_copy, 0.5));
                if (optimize_during_merge) {
                    BitVector live_out(copy.numVregs());
                    optimizeBlock(copy, scratch, live_out);
                }
                EXPECT_LE(floor, scratch.size())
                    << "bb" << hb << " <- bb" << s;

                // Firing-condition documentation: at the default TRIPS
                // target none of these pairs can trip the pre-screen.
                if (optimize_during_merge) {
                    EXPECT_LE(floor + opts.sizeHeadroom,
                              opts.target.maxInsts)
                        << "bb" << hb << " <- bb" << s;
                }
                ++pairs_checked;
            }
        }
        EXPECT_GT(pairs_checked, 5u);
    }

    // And whole-program confirmation of both sides of the condition:
    // silent at the default budget, firing at a reduced one.
    FormationRun default_target = runFormation(source, true, false, true);
    EXPECT_EQ(default_target.prescreened, 0);
    FormationRun tight = runFormation(source, true, false, true, 12);
    EXPECT_GT(tight.prescreened, 0);
}

// ----- Session matrix: trial cache x policy x fault x threads -----

struct BatchOutput
{
    std::vector<std::string> asmText;
    std::string diagText;
    size_t degraded = 0;
};

/**
 * Compile a 4-workload batch through the full pipeline (backend on, so
 * asm is a complete end-to-end fingerprint). @p fault optionally
 * injects a formation failure into unit 1; keep-going mode turns it
 * into a rollback plus a diagnostic instead of an abort.
 */
BatchOutput
compileBatch(PolicyKind policy, int threads,
             const FaultSpec *fault, bool trial_cache)
{
    const char *const names[] = {"dhry", "bzip2_3", "sieve", "gzip_1"};

    if (trial_cache)
        unsetenv("CHF_TRIAL_CACHE");
    else
        setenv("CHF_TRIAL_CACHE", "0", 1);

    SessionOptions options = SessionOptions()
                                 .withPolicy(policy)
                                 .withKeepGoing(true)
                                 .withThreads(threads);
    if (fault)
        options.withFault(*fault);
    Session session(options);
    for (const char *name : names) {
        const Workload *workload = findWorkload(name);
        EXPECT_NE(workload, nullptr) << name;
        Program program = buildWorkload(*workload);
        ProfileData profile = prepareProgram(program);
        session.addProgram(std::move(program), std::move(profile),
                           name);
    }
    SessionResult result = session.compile();
    unsetenv("CHF_TRIAL_CACHE");

    BatchOutput out;
    for (size_t unit = 0; unit < session.size(); ++unit)
        out.asmText.push_back(writeFunctionAsm(session.program(unit).fn));
    out.diagText = result.diagnostics.toString();
    out.degraded = result.degradedCount();
    return out;
}

/** Trial cache on vs off must be byte-identical: asm + diagnostics. */
void
expectTrialCacheIrrelevant(PolicyKind policy, int threads,
                           const FaultSpec *fault)
{
    BatchOutput on = compileBatch(policy, threads, fault, true);
    BatchOutput off = compileBatch(policy, threads, fault, false);
    ASSERT_EQ(on.asmText.size(), off.asmText.size());
    for (size_t u = 0; u < on.asmText.size(); ++u) {
        EXPECT_EQ(on.asmText[u], off.asmText[u])
            << policyKindName(policy) << " unit " << u << " at "
            << threads << " threads";
    }
    EXPECT_EQ(on.diagText, off.diagText)
        << policyKindName(policy) << " at " << threads << " threads";
    EXPECT_EQ(on.degraded, off.degraded);
    if (fault) {
        EXPECT_EQ(on.degraded, 1u);
        EXPECT_FALSE(on.diagText.empty());
    } else {
        EXPECT_EQ(on.degraded, 0u);
    }
}

class TrialCacheMatrix
    : public ::testing::TestWithParam<std::tuple<PolicyKind, int>>
{
};

TEST_P(TrialCacheMatrix, NoFault)
{
    auto [policy, threads] = GetParam();
    expectTrialCacheIrrelevant(policy, threads, nullptr);
}

TEST_P(TrialCacheMatrix, FormationCorruptIr)
{
    auto [policy, threads] = GetParam();
    FaultSpec fault;
    fault.phase = "formation";
    fault.occurrence = 1;
    fault.kind = FaultSpec::Kind::CorruptIr;
    expectTrialCacheIrrelevant(policy, threads, &fault);
}

TEST_P(TrialCacheMatrix, FormationThrow)
{
    auto [policy, threads] = GetParam();
    FaultSpec fault;
    fault.phase = "formation";
    fault.occurrence = 1;
    fault.kind = FaultSpec::Kind::Throw;
    expectTrialCacheIrrelevant(policy, threads, &fault);
}

INSTANTIATE_TEST_SUITE_P(
    All, TrialCacheMatrix,
    ::testing::Combine(::testing::Values(PolicyKind::BreadthFirst,
                                         PolicyKind::DepthFirst,
                                         PolicyKind::Vliw),
                       ::testing::Values(1, 4)),
    [](const auto &info) {
        return std::string(policyKindName(std::get<0>(info.param))) +
               "_" + std::to_string(std::get<1>(info.param)) + "t";
    });

} // namespace
} // namespace chf
