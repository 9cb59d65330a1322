/**
 * @file
 * AnalysisManager tests: every cached analysis must stay bit-identical
 * to a freshly built one after each invalidation event, including the
 * blockAbsorbed fast path that patches dominators and loops in place.
 */

#include <gtest/gtest.h>

#include "analysis/analysis_manager.h"
#include "fresh_analyses.h"
#include "hyperblock/convergent.h"
#include "hyperblock/merge.h"
#include "ir/builder.h"
#include "pipeline/session.h"
#include "transform/cfg_utils.h"
#include "transform/reverse_if_convert.h"

namespace chf {
namespace {

/** entry -> head -> (body -> head) | exit; a classic while loop. */
Function
makeLoop()
{
    Function fn;
    IRBuilder b(fn);
    BlockId entry = b.makeBlock("entry");
    BlockId head = b.makeBlock("head");
    BlockId body = b.makeBlock("body");
    BlockId exit = b.makeBlock("exit");
    fn.setEntry(entry);

    Vreg i = fn.newVreg();
    b.setBlock(entry);
    b.movTo(i, IRBuilder::imm(0));
    b.br(head);
    b.setBlock(head);
    Vreg t = b.binary(Opcode::Tlt, IRBuilder::r(i), IRBuilder::imm(10));
    b.brCond(t, body, exit);
    b.setBlock(body);
    Vreg next = b.add(IRBuilder::r(i), IRBuilder::imm(1));
    b.movTo(i, IRBuilder::r(next));
    b.br(head);
    b.setBlock(exit);
    b.ret(IRBuilder::r(i));
    return fn;
}

TEST(AnalysisManager, PredecessorsPatchedAfterBranchRewrite)
{
    Function fn = makeLoop();
    AnalysisManager am(fn);
    am.predecessors(); // warm the cache

    // Retarget body -> head to body -> exit (kills the loop).
    BasicBlock *body = fn.block(2);
    std::vector<BlockId> old_succs = body->successors();
    redirectBranches(*body, 1, 3);
    am.branchesRewritten(2, old_succs);

    EXPECT_EQ(am.predecessors(), fn.predecessors());
    expectCfgAnalysesMatchFresh(am, fn);
    expectLivenessMatchesFresh(am, fn);
}

TEST(AnalysisManager, BranchRewriteWithSameEdgesKeepsDominators)
{
    Function fn = makeLoop();
    AnalysisManager am(fn);
    const DominatorTree *before = &am.dominators();

    // Rewriting a block without changing its successor set must not
    // invalidate the dominator tree.
    BasicBlock *body = fn.block(2);
    std::vector<BlockId> old_succs = body->successors();
    am.branchesRewritten(2, old_succs);
    EXPECT_EQ(&am.dominators(), before);
}

TEST(AnalysisManager, BlockAbsorbedPatchMatchesFreshBuild)
{
    // A simple merge inside a loop: head absorbs its single-predecessor
    // successor. The dominator tree and loop info must be patched to
    // exactly what a fresh build over the new CFG produces.
    Program p = Session::frontend(R"(
int main() {
  int s = 0;
  for (int i = 0; i < 8; i += 1) {
    s += i;
    if ((s & 1) == 1) { s += 3; }
  }
  return s;
}
)");
    Function &fn = p.fn;
    MergeEngine engine(fn, MergeOptions());
    AnalysisManager &am = engine.analyses();
    am.dominators();
    am.loops();
    am.liveness();

    // Drive real merges until no pair merges any more; check the cache
    // against fresh analyses after every committed mutation.
    size_t merged;
    do {
        merged = 0;
        for (BlockId hb : fn.reversePostOrder()) {
            if (!fn.block(hb))
                continue;
            for (BlockId s : fn.block(hb)->successors()) {
                if (engine.tryMerge(hb, s).success) {
                    ++merged;
                    expectCfgAnalysesMatchFresh(am, fn);
                    expectLivenessMatchesFresh(am, fn);
                    break;
                }
            }
        }
    } while (merged > 0);
    EXPECT_GT(engine.stats().get("blocksMerged"), 0);
}

TEST(AnalysisManager, SplitBlockThenInvalidateAll)
{
    Program p = Session::frontend(R"(
int main() {
  int a = 1; int b = 2; int c = 3; int d = 4;
  int e = a + b; int f = c + d; int g = e * f;
  int h = g + a; int i = h * b; int j = i + c;
  return j;
}
)");
    Function &fn = p.fn;
    AnalysisManager am(fn);
    am.dominators();
    am.loops();
    am.liveness();

    BlockId rest = splitBlockAt(fn, fn.entry(), 4);
    am.invalidateAll();
    if (rest != kNoBlock) {
        expectCfgAnalysesMatchFresh(am, fn);
        expectLivenessMatchesFresh(am, fn);
    }
}

TEST(AnalysisManager, LivenessFollowsVregGrowth)
{
    Function fn = makeLoop();
    AnalysisManager am(fn);
    uint32_t before = am.liveness().universe();

    // Grow the register universe past the padded headroom and use the
    // new registers so they show up in liveness.
    Vreg fresh = fn.newVreg();
    while (fn.numVregs() <= before)
        fresh = fn.newVreg();
    BasicBlock *entry = fn.block(fn.entry());
    entry->insts.insert(
        entry->insts.begin(),
        Instruction::unary(Opcode::Mov, fresh, Operand::makeImm(7)));
    BasicBlock *exit = fn.block(3);
    exit->insts.insert(
        exit->insts.begin(),
        Instruction::unary(Opcode::Mov, fn.newVreg(),
                           Operand::makeReg(fresh)));
    am.instructionsRewritten(fn.entry());
    am.instructionsRewritten(3);

    const Liveness &live = am.liveness();
    EXPECT_GE(live.universe(), fn.numVregs());
    EXPECT_TRUE(live.liveIn(3).test(fresh));
    expectLivenessMatchesFresh(am, fn);
}

TEST(AnalysisManager, BoundedLivenessQueryDefersUpstreamRanks)
{
    // exit gains a use of a new register. A bounded query for exit
    // applies the edit (one update) and solves exit's rank only; the
    // loop and the entry rank higher and stay stale. A second bounded
    // query is a hit although those ranks are still dirty, and the
    // unbounded query then solves them without counting an update.
    Function fn = makeLoop();
    const BlockId entry = 0, exit = 3;
    AnalysisManager am(fn);
    am.liveness();

    Vreg z = fn.newVreg();
    BasicBlock *exit_block = fn.block(exit);
    exit_block->insts.insert(exit_block->insts.begin(),
                             Instruction::store(Operand::makeImm(0),
                                                Operand::makeImm(0),
                                                Operand::makeReg(z)));
    am.instructionsRewritten(exit);

    const std::vector<BlockId> reads{exit};
    const Liveness &live = am.liveness(reads);
    EXPECT_TRUE(live.liveIn(exit).test(z));
    EXPECT_FALSE(live.liveIn(entry).test(z));
    EXPECT_EQ(am.stats().get("analysisLivenessUpdates"), 1);

    am.liveness(reads);
    EXPECT_EQ(am.stats().get("analysisLivenessHits"), 1);

    expectLivenessMatchesFresh(am, fn);
    EXPECT_TRUE(am.liveness().liveIn(entry).test(z));
    EXPECT_EQ(am.stats().get("analysisLivenessUpdates"), 1);
    EXPECT_EQ(am.stats().get("analysisLivenessBuilds"), 1);
}

TEST(AnalysisManager, FormationStressMatchesFresh)
{
    // End-to-end: run whole-function formation, then verify the
    // surviving cache state against fresh analyses.
    Program p = Session::frontend(R"(
int main() {
  int acc = 0;
  for (int i = 0; i < 12; i += 1) {
    int t = i * 3;
    if ((t & 1) == 1) { acc += t; } else { acc -= i; }
    int j = 0;
    while (j < 4) { acc += j & t; j += 1; }
  }
  return acc;
}
)");
    Function &fn = p.fn;
    MergeEngine engine(fn, MergeOptions());
    BreadthFirstPolicy policy;
    for (BlockId seed : fn.reversePostOrder()) {
        if (fn.block(seed))
            expandBlock(engine, policy, seed);
    }
    expectCfgAnalysesMatchFresh(engine.analyses(), fn);
    expectLivenessMatchesFresh(engine.analyses(), fn);
}

} // namespace
} // namespace chf
