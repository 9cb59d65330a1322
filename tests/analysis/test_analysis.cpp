/**
 * @file
 * Analysis tests: dominators, natural loops, liveness, and profiles on
 * hand-built CFGs with known answers.
 */

#include <gtest/gtest.h>

#include "analysis/dominators.h"
#include "analysis/liveness.h"
#include "analysis/loops.h"
#include "analysis/profile.h"
#include "ir/builder.h"
#include "pipeline/session.h"
#include "sim/functional_sim.h"

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

TEST(Dominators, Diamond)
{
    Function fn;
    IRBuilder b(fn);
    BlockId entry = b.makeBlock();
    BlockId t = b.makeBlock();
    BlockId e = b.makeBlock();
    BlockId join = b.makeBlock();
    fn.setEntry(entry);
    b.setBlock(entry);
    Vreg c = b.constant(1);
    b.brCond(c, t, e);
    b.setBlock(t);
    b.br(join);
    b.setBlock(e);
    b.br(join);
    b.setBlock(join);
    b.ret();

    DominatorTree dom(fn);
    EXPECT_EQ(dom.idom(entry), kNoBlock);
    EXPECT_EQ(dom.idom(t), entry);
    EXPECT_EQ(dom.idom(e), entry);
    EXPECT_EQ(dom.idom(join), entry); // neither arm dominates the join
    EXPECT_TRUE(dom.dominates(entry, join));
    EXPECT_TRUE(dom.dominates(join, join));
    EXPECT_FALSE(dom.dominates(t, join));
    auto children = dom.children(entry);
    EXPECT_EQ(children.size(), 3u);
}

TEST(Dominators, LoopHeaderDominatesBody)
{
    Function fn = makeLoop();
    DominatorTree dom(fn);
    EXPECT_TRUE(dom.dominates(1, 2)); // head dominates body
    EXPECT_TRUE(dom.dominates(1, 3)); // and the exit
    EXPECT_FALSE(dom.dominates(2, 1));
}

TEST(Dominators, UnreachableBlocks)
{
    Function fn = makeLoop();
    IRBuilder b(fn);
    BlockId orphan = b.makeBlock();
    b.setBlock(orphan);
    b.ret();
    DominatorTree dom(fn);
    EXPECT_FALSE(dom.reachable(orphan));
    EXPECT_TRUE(dom.reachable(fn.entry()));
}

TEST(Loops, WhileLoopShape)
{
    Function fn = makeLoop();
    LoopInfo loops(fn);
    ASSERT_EQ(loops.loops().size(), 1u);
    const Loop &loop = loops.loops()[0];
    EXPECT_EQ(loop.header, 1u);
    EXPECT_EQ(loop.blocks, (std::vector<BlockId>{1, 2}));
    EXPECT_EQ(loop.latches, (std::vector<BlockId>{2}));
    EXPECT_TRUE(loops.isBackEdge(2, 1));
    EXPECT_FALSE(loops.isBackEdge(1, 2));
    EXPECT_TRUE(loops.isLoopHeader(1));
    EXPECT_FALSE(loops.isLoopHeader(2));
    EXPECT_EQ(loops.depth(2), 1);
    EXPECT_EQ(loops.depth(3), 0);
}

TEST(Loops, SelfLoop)
{
    Function fn;
    IRBuilder b(fn);
    BlockId entry = b.makeBlock();
    BlockId body = b.makeBlock();
    BlockId exit = b.makeBlock();
    fn.setEntry(entry);
    Vreg i = fn.newVreg();
    b.setBlock(entry);
    b.movTo(i, IRBuilder::imm(0));
    b.br(body);
    b.setBlock(body);
    Vreg n = b.add(IRBuilder::r(i), IRBuilder::imm(1));
    b.movTo(i, IRBuilder::r(n));
    Vreg t = b.binary(Opcode::Tlt, IRBuilder::r(i), IRBuilder::imm(5));
    b.brCond(t, body, exit);
    b.setBlock(exit);
    b.ret();

    LoopInfo loops(fn);
    ASSERT_EQ(loops.loops().size(), 1u);
    EXPECT_EQ(loops.loops()[0].header, body);
    EXPECT_TRUE(loops.isBackEdge(body, body));
}

TEST(Loops, NestedDepth)
{
    Program p = Session::frontend(R"(
int main() {
  int acc = 0;
  for (int i = 0; i < 3; i += 1) {
    for (int j = 0; j < 3; j += 1) { acc += i * j; }
  }
  return acc;
}
)");
    LoopInfo loops(p.fn);
    EXPECT_EQ(loops.loops().size(), 2u);
    int max_depth = 0;
    for (const Loop &loop : loops.loops())
        max_depth = std::max(max_depth, loop.depth);
    EXPECT_EQ(max_depth, 2);
}

TEST(Liveness, StraightLine)
{
    Function fn;
    IRBuilder b(fn);
    BlockId a = b.makeBlock();
    BlockId c = b.makeBlock();
    fn.setEntry(a);
    Vreg x = fn.newVreg();
    b.setBlock(a);
    b.movTo(x, IRBuilder::imm(42));
    b.br(c);
    b.setBlock(c);
    b.ret(IRBuilder::r(x));

    Liveness live(fn);
    EXPECT_TRUE(live.liveOut(a).test(x));
    EXPECT_TRUE(live.liveIn(c).test(x));
    EXPECT_FALSE(live.liveIn(a).test(x)); // killed by the def
}

TEST(Liveness, PredicatedWriteDoesNotKill)
{
    Function fn;
    IRBuilder b(fn);
    BlockId a = b.makeBlock();
    BlockId c = b.makeBlock();
    fn.setEntry(a);
    Vreg x = fn.newVreg();
    Vreg p = fn.newVreg();
    b.setBlock(a);
    Instruction mov =
        Instruction::unary(Opcode::Mov, x, Operand::makeImm(1));
    mov.pred = Predicate::onReg(p, true);
    b.emit(mov);
    b.br(c);
    b.setBlock(c);
    b.ret(IRBuilder::r(x));

    Liveness live(fn);
    // x may flow through when p is false, so it is live into a.
    EXPECT_TRUE(live.liveIn(a).test(x));
    EXPECT_TRUE(live.liveIn(a).test(p));
}

TEST(Liveness, LoopCarried)
{
    Function fn = makeLoop();
    Liveness live(fn);
    Vreg i = 0; // first vreg is the induction variable
    EXPECT_TRUE(live.liveIn(1).test(i));  // head reads it
    EXPECT_TRUE(live.liveOut(2).test(i)); // body carries it back
}

TEST(Profile, EdgeCountsAndBlockCounts)
{
    EdgeProfile profile;
    profile.addEdge(0, 1, 10);
    profile.addEdge(2, 1, 5);
    profile.addEdge(1, 2, 15);
    profile.addEntry(0);
    EXPECT_EQ(profile.edgeCount(0, 1), 10u);
    EXPECT_EQ(profile.edgeCount(1, 0), 0u);
    EXPECT_EQ(profile.blockCount(1), 15u);
    EXPECT_EQ(profile.blockCount(0), 1u);
}

TEST(Profile, TripQuantile)
{
    TripCountHistograms trips;
    for (int i = 0; i < 60; ++i)
        trips.record(7, 2);
    for (int i = 0; i < 40; ++i)
        trips.record(7, 10);
    EXPECT_NEAR(trips.meanTrips(7), 5.2, 0.01);
    EXPECT_EQ(trips.tripQuantile(7, 0.5), 2u);
    EXPECT_EQ(trips.tripQuantile(7, 0.95), 10u);
    EXPECT_FALSE(trips.has(8));
    EXPECT_EQ(trips.meanTrips(8), 0.0);
}

TEST(Profile, AnnotationRoundTrip)
{
    Program p = Session::frontend(R"(
int main() {
  int s = 0;
  for (int i = 0; i < 5; i += 1) { s += i; }
  return s;
}
)");
    ProfileData profile = profileProgram(p);
    (void)profile;
    // Every reachable branch got a frequency; entry block frequency
    // reflects one run.
    double entry_freq = p.fn.block(p.fn.entry())->frequency();
    EXPECT_DOUBLE_EQ(entry_freq, 1.0);
}

} // namespace
} // namespace chf
