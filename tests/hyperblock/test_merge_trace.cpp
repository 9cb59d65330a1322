/**
 * @file
 * Formation references that need no switch. Convergent formation has
 * one analysis path and one trial path; each cache on them is held to
 * a reference built without it:
 *
 *  - FormationAnalysisCheck: a checking Policy runs inside real
 *    expandBlock calls and, at every beginBlock and select, compares
 *    the engine's cached dominators, loops and predecessors with fresh
 *    builds, the liveness of every block the seed reaches (a bounded
 *    query, so the ranks upstream stay dirty across seeds as in an
 *    unchecked run) with a fresh solve, and every candidate descriptor
 *    with one recomputed from fresh analyses over an independently
 *    tracked pending set. The full liveness is compared once, after
 *    the last seed.
 *  - TrialScratchReuse: every mergeable pair of the same programs
 *    (plus two generated ones) goes through combine, optimize and
 *    legality on one long-lived scratch set, and must match the same
 *    calls on a new scratch set per trial.
 *  - MergeTraceDifferential / TrialFastPath: a formation on a cleared
 *    failed-trial memo (clearTrialMemo) runs cold and is the reference
 *    a warm re-run must match: same decisions, vreg burn and IR.
 *  - TrialMemoMatrix: the cold-vs-warm contract for Session batches,
 *    policy x fault x threads, byte-identical asm and diagnostics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>

#include "../analysis/fresh_analyses.h"
#include "backend/asm_writer.h"
#include "hyperblock/constraints.h"
#include "hyperblock/convergent.h"
#include "hyperblock/merge.h"
#include "hyperblock/phase_ordering.h"
#include "hyperblock/vliw_policy.h"
#include "ir/printer.h"
#include "pipeline/session.h"
#include "support/random.h"
#include "transform/cfg_utils.h"
#include "transform/if_convert.h"
#include "transform/optimize.h"
#include "workloads/generator.h"
#include "workloads/workloads.h"

namespace chf {
namespace {

const char *const kDiamondChain = R"(
int main() {
  int acc = 0;
  for (int i = 0; i < 16; i += 1) {
    int t = i * 5;
    if ((t & 1) == 1) { acc += t; } else { acc -= i; }
    if ((t & 6) == 2) { acc += 3; }
  }
  return acc;
}
)";

const char *const kNestedLoops = R"(
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
)";

const char *const kDoWhileWithBreaks = R"(
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
)";

const char *const kArrays = R"(
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
)";

/** The four programs, and whether each runs with block splitting. */
const std::pair<const char *, bool> kPrograms[] = {
    {kDiamondChain, false},
    {kNestedLoops, false},
    {kDoWhileWithBreaks, false},
    {kArrays, true},
};

std::unique_ptr<Policy>
makeTestPolicy(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::BreadthFirst: return makeBreadthFirstPolicy();
      case PolicyKind::DepthFirst:
        return std::make_unique<DepthFirstPolicy>();
      default: return std::make_unique<VliwPolicy>();
    }
}

/**
 * Candidate descriptor computed from fresh analyses: the definition
 * expandBlock's cached, reused descriptors must equal.
 */
MergeCandidate
freshDescriptor(const Function &fn, const LoopInfo &loops,
                const PredecessorMap &preds, BlockId hb, BlockId block,
                int order)
{
    const BasicBlock *hb_block = fn.block(hb);
    MergeCandidate c;
    c.block = block;
    c.discoveryOrder = order;
    c.entryFreq = branchFreqTo(*hb_block, block);
    c.isBackEdge = loops.isBackEdge(hb, block);
    c.needsDup = !(preds[block].size() == 1 && preds[block][0] == hb) ||
                 c.isBackEdge;
    c.isLoopHeader = loops.isLoopHeader(block);
    c.blockSize = fn.block(block)->size();
    c.candFreq = fn.block(block)->frequency();
    c.hbFreq = hb_block->frequency();
    const Loop *hb_loop = loops.innermostContaining(hb);
    c.leavesLoop = hb_loop != nullptr && block != hb &&
                   !hb_loop->contains(block);
    return c;
}

/**
 * Wraps a real policy and checks expandBlock's state at every round.
 * The pending set is tracked here independently of expandBlock: the
 * last pick leaves it, and a committed merge (blocksMerged grew)
 * drops dead blocks and appends the seed's new successors.
 */
class CheckingPolicy : public Policy
{
  public:
    CheckingPolicy(Policy &inner, MergeEngine &engine)
        : inner(inner), engine(engine)
    {
    }

    const char *name() const override { return inner.name(); }

    void
    beginBlock(AnalysisManager &analyses, BlockId seed) override
    {
        this->seed = seed;
        expectAnalysesFresh();
        pending.clear();
        discovery = 0;
        lastPick = kNoBlock;
        merged = engine.stats().get("blocksMerged");
        addSuccessors();
        inner.beginBlock(analyses, seed);
    }

    int
    select(const Function &fn, BlockId hb,
           const std::vector<MergeCandidate> &candidates) override
    {
        ++rounds;
        EXPECT_EQ(hb, seed);
        expectAnalysesFresh();
        if (lastPick != kNoBlock) {
            std::erase_if(pending, [&](const auto &p) {
                return p.first == lastPick;
            });
            if (engine.stats().get("blocksMerged") != merged) {
                merged = engine.stats().get("blocksMerged");
                std::erase_if(pending, [&](const auto &p) {
                    return fn.block(p.first) == nullptr;
                });
                addSuccessors();
            }
        }

        LoopInfo loops(fn);
        PredecessorMap preds = fn.predecessors();
        EXPECT_EQ(candidates.size(), pending.size())
            << "seed bb" << seed << " round " << rounds;
        for (size_t i = 0;
             i < std::min(candidates.size(), pending.size()); ++i) {
            const MergeCandidate &got = candidates[i];
            MergeCandidate want =
                freshDescriptor(fn, loops, preds, hb, pending[i].first,
                                pending[i].second);
            SCOPED_TRACE(testing::Message()
                         << "seed bb" << seed << " round " << rounds
                         << " candidate " << i);
            EXPECT_EQ(got.block, want.block);
            EXPECT_EQ(got.discoveryOrder, want.discoveryOrder);
            EXPECT_EQ(got.entryFreq, want.entryFreq);
            EXPECT_EQ(got.needsDup, want.needsDup);
            EXPECT_EQ(got.isLoopHeader, want.isLoopHeader);
            EXPECT_EQ(got.isBackEdge, want.isBackEdge);
            EXPECT_EQ(got.blockSize, want.blockSize);
            EXPECT_EQ(got.candFreq, want.candFreq);
            EXPECT_EQ(got.hbFreq, want.hbFreq);
            EXPECT_EQ(got.leavesLoop, want.leavesLoop);
        }

        int pick = inner.select(fn, hb, candidates);
        lastPick = pick >= 0 ? candidates[pick].block : kNoBlock;
        return pick;
    }

    size_t rounds = 0;

  private:
    void
    expectAnalysesFresh()
    {
        const Function &fn = engine.function();
        expectCfgAnalysesMatchFresh(engine.analyses(), fn);

        // Every block the seed reaches, through a bounded query: the
        // blocks upstream of the seed are not flushed.
        std::vector<BlockId> reached{seed};
        std::vector<uint8_t> seen(fn.blockTableSize(), 0);
        seen[seed] = 1;
        for (size_t i = 0; i < reached.size(); ++i) {
            for (BlockId succ : fn.block(reached[i])->successors()) {
                if (!seen[succ]) {
                    seen[succ] = 1;
                    reached.push_back(succ);
                }
            }
        }
        expectSetsMatchFresh(engine.analyses().liveness(reached), fn,
                             reached);
    }

    void
    addSuccessors()
    {
        for (BlockId succ : engine.function().block(seed)->successors()) {
            bool known = std::any_of(
                pending.begin(), pending.end(),
                [&](const auto &p) { return p.first == succ; });
            if (!known)
                pending.emplace_back(succ, discovery++);
        }
    }

    Policy &inner;
    MergeEngine &engine;
    BlockId seed = kNoBlock;
    std::vector<std::pair<BlockId, int>> pending;
    int discovery = 0;
    BlockId lastPick = kNoBlock;
    int64_t merged = 0;
};

struct FormationRun
{
    std::string ir;
    std::vector<MergeTraceEntry> trace;
    int64_t merges = 0;
    int64_t memoHits = 0;
    int64_t tailDups = 0;
    int64_t peels = 0;
    int64_t livenessWalks = 0;
    uint32_t finalVregs = 0;
    size_t checkedRounds = 0;
};

/**
 * Prepare @p p (profile + for-loop unroll, as the real pipeline does),
 * then form hyperblocks over every seed while recording the merge
 * trace. With @p check, the policy runs inside a CheckingPolicy, and
 * the full liveness is compared with a fresh solve after the last seed.
 */
FormationRun
runFormation(Program p, bool block_splitting,
             PolicyKind kind = PolicyKind::BreadthFirst,
             bool check = false)
{
    prepareProgram(p);

    MergeOptions opts;
    opts.recordMergeTrace = true;
    opts.enableBlockSplitting = block_splitting;
    MergeEngine engine(p.fn, opts);
    std::unique_ptr<Policy> policy = makeTestPolicy(kind);
    CheckingPolicy checking(*policy, engine);
    Policy &used = check ? static_cast<Policy &>(checking) : *policy;
    for (BlockId seed : p.fn.reversePostOrder()) {
        if (p.fn.block(seed))
            expandBlock(engine, used, seed);
    }
    if (check)
        expectLivenessMatchesFresh(engine.analyses(), p.fn);
    p.fn.removeUnreachable();

    FormationRun run;
    run.ir = toString(p.fn);
    run.trace = engine.trace();
    run.merges = engine.stats().get("blocksMerged");
    run.memoHits = engine.stats().get("trialsMemoHit");
    run.tailDups = engine.stats().get("tailDuplicated");
    run.peels = engine.stats().get("peeledIterations");
    run.livenessWalks =
        engine.analyses().stats().get("analysisLivenessWalks");
    run.finalVregs = p.fn.numVregs();
    run.checkedRounds = checking.rounds;
    return run;
}

FormationRun
runFormation(const std::string &source, bool block_splitting,
             PolicyKind kind = PolicyKind::BreadthFirst,
             bool check = false)
{
    return runFormation(Session::frontend(source), block_splitting, kind,
                        check);
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

// ----- per-round analysis and descriptor check -----

TEST(FormationAnalysisCheck, EveryRoundMatchesFreshBuilds)
{
    // The four programs above, then generated ones: bench-shaped ones,
    // and irreducible ones, whose side entrances into loops make
    // formation tail-duplicate and peel -- the commits after which a
    // liveness update walks the CFG for blocks cut off.
    // Some generated programs prepare to a single block and form
    // nothing; the four written ones must merge.
    struct Case
    {
        std::string name;
        Program program;
        bool splitting;
        bool mustMerge;
    };
    std::vector<Case> corpus;
    for (size_t i = 0; i < std::size(kPrograms); ++i) {
        corpus.push_back({"program " + std::to_string(i),
                          Session::frontend(kPrograms[i].first),
                          kPrograms[i].second, true});
    }
    for (const auto &[shape_name, seeds] :
         {std::pair<const char *, uint64_t>{"bench", 10},
          {"irreducible", 3}}) {
        GeneratorShape shape;
        ASSERT_TRUE(namedShape(shape_name, &shape));
        for (uint64_t seed = 1; seed <= seeds; ++seed) {
            corpus.push_back(
                {std::string(shape_name) + " seed " + std::to_string(seed),
                 buildGenerated(generateTinyC(seed, shape)), false,
                 false});
        }
    }

    int64_t tail_dups = 0, peels = 0, walks = 0;
    for (const Case &c : corpus) {
        for (PolicyKind kind :
             {PolicyKind::BreadthFirst, PolicyKind::DepthFirst,
              PolicyKind::Vliw}) {
            SCOPED_TRACE(testing::Message()
                         << c.name << " " << policyKindName(kind)
                         << " splitting=" << c.splitting);
            clearTrialMemo();
            FormationRun unchecked =
                runFormation(c.program.clone(), c.splitting, kind);
            clearTrialMemo();
            FormationRun checked =
                runFormation(c.program.clone(), c.splitting, kind, true);
            expectSameRun(checked, unchecked, "checked run");
            if (c.mustMerge) {
                EXPECT_GT(checked.checkedRounds, 0u);
                EXPECT_GT(checked.merges, 0);
            }
            tail_dups += checked.tailDups;
            peels += checked.peels;
            walks += checked.livenessWalks;
        }
    }
    EXPECT_GT(tail_dups, 0);
    EXPECT_GT(peels, 0);
    EXPECT_GT(walks, 0);
}

// ----- scratch-reuse oracle -----

/** Union of the live-ins of @p bb's targets, over @p fn's vregs. */
BitVector
targetLiveIns(const Function &fn, const Liveness &live,
              const BasicBlock &bb)
{
    BitVector out(fn.numVregs());
    for (BlockId succ : bb.successors())
        live.liveIn(succ).forEach([&](size_t v) { out.set(v); });
    return out;
}

/** One trial's combine / optimize / legality result. */
struct TrialResult
{
    bool combined = false;
    std::vector<Instruction> insts;
    uint32_t vregsBurned = 0;
    std::string reason;
};

/** The persistent scratch set MergeEngine keeps across trials. */
struct ReusedScratch
{
    BasicBlock scratch{kNoBlock, ""};
    BasicBlock sourceCopy{kNoBlock, ""};
    CombineScratch combine;
    BlockOptScratch opt;
    BlockAnalysisScratch legal;
};

/** Run one trial of @p s into @p hb on @p fn in @p scratch's blocks
 *  and working storage. */
TrialResult
runTrial(Function &fn, const Liveness &live, const BasicBlock &hb,
         const BasicBlock &s, ReusedScratch &scratch)
{
    const TargetModel target;
    const size_t headroom = 4;
    const uint32_t before = fn.numVregs();
    BasicBlock &block = scratch.scratch;
    BasicBlock &source = scratch.sourceCopy;
    block.assignFrom(hb);
    source.assignFrom(s);

    TrialResult r;
    r.combined = combineBlocks(fn, block, source, entryShare(hb, s),
                               scratch.combine);
    if (r.combined) {
        BitVector live_out = targetLiveIns(fn, live, block);
        optimizeBlock(block, live_out, scratch.opt);
        r.reason = checkBlockLegal(block, live_out, target, headroom,
                                   scratch.legal);
    }
    r.insts = block.insts;
    r.vregsBurned = fn.numVregs() - before;
    return r;
}

/** Every (hb, s) pair where hb branches to s and s is not the entry. */
std::vector<std::pair<BlockId, BlockId>>
mergeablePairs(const Function &fn)
{
    std::vector<std::pair<BlockId, BlockId>> pairs;
    for (BlockId hb : fn.blockIds()) {
        for (BlockId s : fn.block(hb)->successors()) {
            if (s != fn.entry())
                pairs.emplace_back(hb, s);
        }
    }
    return pairs;
}

/** True when @p bb has an instruction predicated on a register it has
 *  not defined above it: only such predicates reach a fold cached by an
 *  earlier combine. */
bool
readsOutsidePredicate(const BasicBlock &bb)
{
    std::vector<Vreg> defined;
    for (const Instruction &inst : bb.insts) {
        if (inst.pred.valid() &&
            std::find(defined.begin(), defined.end(), inst.pred.reg) ==
                defined.end())
            return true;
        if (inst.hasDest())
            defined.push_back(inst.dest);
    }
    return false;
}

TEST(TrialScratchReuse, MatchesFreshScratchOnEveryPair)
{
    // The four programs above, plus two generated ones whose blocks
    // carry predicates defined outside them.
    std::vector<std::pair<Program, bool>> programs;
    for (const auto &[source, splitting] : kPrograms)
        programs.emplace_back(Session::frontend(source), splitting);
    for (const auto &[seed, shape_name] :
         {std::pair<uint64_t, const char *>{1, "default"}, {2, "tiny"}}) {
        GeneratorShape shape;
        ASSERT_TRUE(namedShape(shape_name, &shape));
        programs.emplace_back(buildGenerated(generateTinyC(seed, shape)),
                              false);
    }

    size_t pairs_checked = 0, outside_predicates = 0;
    uint64_t shuffle_seed = 1;
    for (auto &[program, splitting] : programs) {
        // The prepared CFG (plain blocks) and the formed one (predicated
        // hyperblocks, whose combines exercise the predicate folds).
        prepareProgram(program);
        Function formed = program.fn.clone();
        {
            MergeOptions opts;
            opts.enableBlockSplitting = splitting;
            MergeEngine engine(formed, opts);
            BreadthFirstPolicy policy;
            for (BlockId b : formed.reversePostOrder()) {
                if (formed.block(b))
                    expandBlock(engine, policy, b);
            }
        }

        for (const Function *fn : {&program.fn, &formed}) {
            std::vector<std::pair<BlockId, BlockId>> pairs =
                mergeablePairs(*fn);
            Rng rng(shuffle_seed++);
            for (size_t i = pairs.size(); i > 1; --i)
                std::swap(pairs[i - 1], pairs[rng.below(i)]);

            const Liveness live(*fn);
            Function with_reuse = fn->clone();
            Function with_fresh = fn->clone();
            ReusedScratch reused;
            for (const auto &[hb, s] : pairs) {
                const BasicBlock &hb_block = *fn->block(hb);
                const BasicBlock &s_block = *fn->block(s);
                ReusedScratch fresh;
                TrialResult got =
                    runTrial(with_reuse, live, hb_block, s_block, reused);
                TrialResult want =
                    runTrial(with_fresh, live, hb_block, s_block, fresh);
                SCOPED_TRACE(testing::Message() << "bb" << hb << " <- bb"
                                                << s);
                EXPECT_EQ(got.combined, want.combined);
                EXPECT_EQ(got.vregsBurned, want.vregsBurned);
                EXPECT_EQ(got.reason, want.reason);
                ASSERT_EQ(got.insts.size(), want.insts.size());
                for (size_t k = 0; k < got.insts.size(); ++k) {
                    EXPECT_TRUE(got.insts[k].sameAs(want.insts[k]) &&
                                got.insts[k].freq == want.insts[k].freq)
                        << "instruction " << k;
                }
                ++pairs_checked;
                outside_predicates += readsOutsidePredicate(s_block);
            }
        }
    }
    EXPECT_GT(pairs_checked, 100u);
    EXPECT_GT(outside_predicates, 0u);
}

// ----- cold memo as the reference -----

/** A cold formation (cleared memo) against a warm re-run. */
void
expectColdWarmIdentical(const std::string &source, bool block_splitting)
{
    clearTrialMemo();
    FormationRun cold = runFormation(source, block_splitting);
    FormationRun warm = runFormation(source, block_splitting);
    expectSameRun(warm, cold, "warm memo");
    EXPECT_EQ(cold.memoHits, 0);
    EXPECT_GT(cold.merges, 0);
}

TEST(MergeTraceDifferential, DiamondChain)
{
    expectColdWarmIdentical(kDiamondChain, false);
}

TEST(MergeTraceDifferential, NestedLoops)
{
    expectColdWarmIdentical(kNestedLoops, false);
}

TEST(MergeTraceDifferential, DoWhileWithBreaks)
{
    expectColdWarmIdentical(kDoWhileWithBreaks, false);
}

TEST(MergeTraceDifferential, ArraysWithBlockSplitting)
{
    expectColdWarmIdentical(kArrays, true);
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
    clearTrialMemo();
    FormationRun first = runFormation(source, false);
    FormationRun second = runFormation(source, false);
    expectSameRun(second, first, "memoized re-run");

    bool any_failure = false;
    for (const MergeTraceEntry &e : first.trace)
        any_failure |= !e.success;
    ASSERT_TRUE(any_failure) << "test program produced no failed "
                                "trials; memo cannot be exercised";
    EXPECT_EQ(first.memoHits, 0);
    EXPECT_GT(second.memoHits, 0);
}

TEST(TrialFastPath, MemoStoreStatsAreExposed)
{
    // The store's counters account every lookup: hits + misses
    // grow by exactly the compile's own trialsMemoHit and trialsRun
    // counters (every trial looks the store up once, and nothing else
    // compiles meanwhile). clearTrialMemo empties the store but never
    // rewinds the cumulative counters.
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

    Session session{SessionOptions().withBackend(false)};
    session.addProgramRef(program, profile);
    SessionResult result = session.compile(1);

    const TrialMemoStats after = trialMemoStats();
    EXPECT_GE(after.hits, before.hits);
    EXPECT_GE(after.misses, before.misses);
    EXPECT_GE(after.entries, before.entries);
    EXPECT_GT(after.entries, 0u);

    EXPECT_EQ(result.totals.get("trialsMemoHit"),
              static_cast<int64_t>(after.hits - before.hits));
    EXPECT_EQ(result.totals.get("trialsRun"),
              static_cast<int64_t>(after.misses - before.misses));
    EXPECT_GT(result.totals.get("trialsRun"), 0);

    clearTrialMemo();
    const TrialMemoStats cleared = trialMemoStats();
    EXPECT_EQ(cleared.entries, 0u);
    EXPECT_EQ(cleared.hits, after.hits);
    EXPECT_EQ(cleared.misses, after.misses);
    EXPECT_EQ(cleared.evictions, after.evictions);
}

// ----- Session matrix: cold vs warm memo x policy x fault x threads -----

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
compileBatch(PolicyKind policy, int threads, const FaultSpec *fault)
{
    const char *const names[] = {"dhry", "bzip2_3", "sieve", "gzip_1"};

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

    BatchOutput out;
    for (size_t unit = 0; unit < session.size(); ++unit)
        out.asmText.push_back(writeFunctionAsm(session.program(unit).fn));
    out.diagText = result.diagnostics.toString();
    out.degraded = result.degradedCount();
    return out;
}

/** A warm batch must be byte-identical to a cold one: asm + diagnostics. */
void
expectColdWarmBatchIdentical(PolicyKind policy, int threads,
                             const FaultSpec *fault)
{
    clearTrialMemo();
    BatchOutput cold = compileBatch(policy, threads, fault);
    const TrialMemoStats after_cold = trialMemoStats();
    BatchOutput warm = compileBatch(policy, threads, fault);
    // Every failure the cold run recorded is answered from the memo.
    if (after_cold.entries > 0) {
        EXPECT_GT(trialMemoStats().hits, after_cold.hits);
    }
    ASSERT_EQ(cold.asmText.size(), warm.asmText.size());
    for (size_t u = 0; u < cold.asmText.size(); ++u) {
        EXPECT_EQ(warm.asmText[u], cold.asmText[u])
            << policyKindName(policy) << " unit " << u << " at "
            << threads << " threads";
    }
    EXPECT_EQ(warm.diagText, cold.diagText)
        << policyKindName(policy) << " at " << threads << " threads";
    EXPECT_EQ(warm.degraded, cold.degraded);
    if (fault) {
        EXPECT_EQ(cold.degraded, 1u);
        EXPECT_FALSE(cold.diagText.empty());
    } else {
        EXPECT_EQ(cold.degraded, 0u);
    }
}

class TrialMemoMatrix
    : public ::testing::TestWithParam<std::tuple<PolicyKind, int>>
{
};

TEST_P(TrialMemoMatrix, NoFault)
{
    auto [policy, threads] = GetParam();
    expectColdWarmBatchIdentical(policy, threads, nullptr);
}

TEST_P(TrialMemoMatrix, FormationCorruptIr)
{
    auto [policy, threads] = GetParam();
    FaultSpec fault;
    fault.phase = "formation";
    fault.unit = 1;
    fault.kind = FaultSpec::Kind::CorruptIr;
    expectColdWarmBatchIdentical(policy, threads, &fault);
}

TEST_P(TrialMemoMatrix, FormationThrow)
{
    auto [policy, threads] = GetParam();
    FaultSpec fault;
    fault.phase = "formation";
    fault.unit = 1;
    fault.kind = FaultSpec::Kind::Throw;
    expectColdWarmBatchIdentical(policy, threads, &fault);
}

INSTANTIATE_TEST_SUITE_P(
    All, TrialMemoMatrix,
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
