/**
 * @file
 * Analysis tests: dominators, natural loops, liveness, and profiles on
 * hand-built CFGs with known answers.
 */

#include <gtest/gtest.h>

#include "analysis/analysis_manager.h"
#include "analysis/dominators.h"
#include "analysis/liveness.h"
#include "analysis/loops.h"
#include "analysis/profile.h"
#include "ir/builder.h"
#include "pipeline/session.h"
#include "sim/functional_sim.h"
#include "workloads/generator.h"
#include "workloads/workloads.h"

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

// ----- Liveness::update: reachability from the cached successor lists -----

/**
 * Every block's live-in and live-out in @p live, removed and
 * unreachable blocks included, equal those of a fresh solve (universe
 * padding ignored), through every query.
 */
void
expectUpdateMatchesFresh(const Liveness &live, const Function &fn)
{
    Liveness fresh(fn);
    ASSERT_GE(live.universe(), fn.numVregs());
    for (BlockId id = 0; id < fn.blockTableSize(); ++id) {
        const BitVector in = live.liveIn(id), out = live.liveOut(id);
        const BitVector want_in = fresh.liveIn(id);
        const BitVector want_out = fresh.liveOut(id);
        std::vector<Vreg> listed, want_listed;
        for (Vreg v = 0; v < fn.numVregs(); ++v) {
            EXPECT_EQ(in.test(v), want_in.test(v))
                << "live-in bb" << id << " v" << v;
            EXPECT_EQ(out.test(v), want_out.test(v))
                << "live-out bb" << id << " v" << v;
            EXPECT_EQ(live.liveInContains(id, v), want_in.test(v))
                << "liveInContains bb" << id << " v" << v;
            EXPECT_EQ(live.liveOutContains(id, v), want_out.test(v))
                << "liveOutContains bb" << id << " v" << v;
            if (want_in.test(v))
                want_listed.push_back(v);
        }
        live.forEachLiveIn(id, [&](Vreg v) { listed.push_back(v); });
        EXPECT_EQ(listed, want_listed) << "forEachLiveIn bb" << id;

        // liveOutOf: the union of the live-ins of the block's targets.
        const BasicBlock *bb = fn.block(id);
        if (!bb)
            continue;
        BitVector targets_in;
        live.liveOutOf(*bb, targets_in);
        ASSERT_EQ(targets_in.size(), live.universe());
        for (Vreg v = 0; v < fn.numVregs(); ++v) {
            bool want = false;
            for (BlockId t : bb->successors())
                want = want || fresh.liveInContains(t, v);
            EXPECT_EQ(targets_in.test(v), want)
                << "liveOutOf bb" << id << " v" << v;
        }
    }
}

/** Replace @p id's instructions with one unconditional branch. */
void
rewriteToBranch(Function &fn, BlockId id, BlockId target)
{
    fn.block(id)->insts.clear();
    IRBuilder b(fn);
    b.setBlock(id);
    b.br(target);
}

TEST(LivenessUpdate, DroppedEdgeSendsRegionToBottom)
{
    // entry -> mid -> {r1 <-> r2 loop} -> exit; mid is the only way
    // into the loop. Retargeting mid straight to exit leaves the loop
    // unreachable, so its sets must go empty as in a fresh solve.
    Function fn;
    IRBuilder b(fn);
    BlockId entry = b.makeBlock("entry");
    BlockId mid = b.makeBlock("mid");
    BlockId r1 = b.makeBlock("r1");
    BlockId r2 = b.makeBlock("r2");
    BlockId exit = b.makeBlock("exit");
    fn.setEntry(entry);
    Vreg x = fn.newVreg(), y = fn.newVreg();
    fn.argRegs = {x, y};
    b.setBlock(entry);
    b.br(mid);
    b.setBlock(mid);
    b.br(r1);
    b.setBlock(r1);
    Vreg t = b.binary(Opcode::Tlt, IRBuilder::r(x), IRBuilder::r(y));
    b.brCond(t, r2, exit);
    b.setBlock(r2);
    b.movTo(x, IRBuilder::r(y));
    b.br(r1);
    b.setBlock(exit);
    b.ret(IRBuilder::r(x));

    Liveness live(fn);
    ASSERT_TRUE(live.liveIn(r1).test(y));

    rewriteToBranch(fn, mid, exit);
    EXPECT_EQ(live.update(fn, {mid}, fn.predecessors()),
              Liveness::UpdatePath::Walk);
    expectUpdateMatchesFresh(live, fn);
    EXPECT_TRUE(live.liveIn(r1).none());
    EXPECT_TRUE(live.liveOut(r2).none());
    EXPECT_FALSE(live.liveIn(mid).test(y));
}

TEST(LivenessUpdate, RejoinedBlockIsReadFromTheFunction)
{
    // entry -> o -> t1 -> exit, and a spare t2 -> exit. First entry
    // stops branching to o, leaving o, t1 and t2 unreachable; then o is
    // retargeted to t2 without being listed; then entry branches to o
    // again. The cached list of o still says t1: the update must read
    // o's branches from the function when reachability reaches it.
    Function fn;
    IRBuilder b(fn);
    BlockId entry = b.makeBlock("entry");
    BlockId o = b.makeBlock("o");
    BlockId t1 = b.makeBlock("t1");
    BlockId t2 = b.makeBlock("t2");
    BlockId exit = b.makeBlock("exit");
    fn.setEntry(entry);
    Vreg x = fn.newVreg(), y = fn.newVreg();
    fn.argRegs = {x, y};
    b.setBlock(entry);
    b.br(o);
    b.setBlock(o);
    b.br(t1);
    b.setBlock(t1);
    b.store(IRBuilder::imm(0), IRBuilder::imm(0), IRBuilder::r(x));
    b.br(exit);
    b.setBlock(t2);
    b.store(IRBuilder::imm(0), IRBuilder::imm(0), IRBuilder::r(y));
    b.br(exit);
    b.setBlock(exit);
    b.ret();

    Liveness live(fn);
    ASSERT_TRUE(live.liveIn(o).test(x));

    rewriteToBranch(fn, entry, exit);
    EXPECT_EQ(live.update(fn, {entry}, fn.predecessors()),
              Liveness::UpdatePath::Walk);
    expectUpdateMatchesFresh(live, fn);

    // An edge into a block that was off the CFG rebuilds, which reads
    // every block from the function.
    rewriteToBranch(fn, o, t2); // unlisted: o is off the CFG
    rewriteToBranch(fn, entry, o);
    EXPECT_EQ(live.update(fn, {entry}, fn.predecessors()),
              Liveness::UpdatePath::Rebuild);
    expectUpdateMatchesFresh(live, fn);
    EXPECT_TRUE(live.liveIn(o).test(y));
    EXPECT_FALSE(live.liveIn(o).test(x));
    EXPECT_TRUE(live.liveIn(t1).none());
}

TEST(LivenessUpdate, RemovedListedBlockGoesEmpty)
{
    // A diamond whose then-arm is removed after the entry stops
    // branching to it; the removed block is listed with the entry.
    Function fn;
    IRBuilder b(fn);
    BlockId entry = b.makeBlock("entry");
    BlockId then_b = b.makeBlock("then");
    BlockId else_b = b.makeBlock("else");
    BlockId join = b.makeBlock("join");
    fn.setEntry(entry);
    Vreg x = fn.newVreg(), y = fn.newVreg(), p = fn.newVreg();
    fn.argRegs = {x, y, p};
    b.setBlock(entry);
    b.brCond(p, then_b, else_b);
    b.setBlock(then_b);
    Vreg s = b.add(IRBuilder::r(x), IRBuilder::r(y));
    b.store(IRBuilder::imm(0), IRBuilder::imm(0), IRBuilder::r(s));
    b.br(join);
    b.setBlock(else_b);
    b.store(IRBuilder::imm(0), IRBuilder::imm(0), IRBuilder::r(y));
    b.br(join);
    b.setBlock(join);
    b.ret();

    Liveness live(fn);
    ASSERT_TRUE(live.liveIn(entry).test(x));

    // then's edge to join went away and entry does not branch to join
    // in its stead: the update walks (join stays reachable via else).
    rewriteToBranch(fn, entry, else_b);
    fn.removeBlock(then_b);
    EXPECT_EQ(live.update(fn, {entry, then_b}, fn.predecessors()),
              Liveness::UpdatePath::Walk);
    expectUpdateMatchesFresh(live, fn);
    EXPECT_TRUE(live.liveIn(then_b).none());
    EXPECT_FALSE(live.liveIn(entry).test(x));
    EXPECT_FALSE(live.liveIn(entry).test(p));
}

TEST(LivenessUpdate, InstructionEditWithSameEdges)
{
    // The loop body gains a use of a new register and drops its def of
    // the induction variable: no edge changes, the universe grows.
    Function fn = makeLoop();
    const BlockId entry = 0, head = 1, body = 2;
    Liveness live(fn);
    Vreg z = fn.newVreg();
    BasicBlock &bb = *fn.block(body);
    bb.insts.erase(bb.insts.begin(), bb.insts.end() - 1);
    bb.insts.insert(bb.insts.begin(),
                    Instruction::store(Operand::makeImm(0),
                                       Operand::makeImm(0),
                                       Operand::makeReg(z)));

    EXPECT_EQ(live.update(fn, {body}, fn.predecessors()),
              Liveness::UpdatePath::Local);
    expectUpdateMatchesFresh(live, fn);
    EXPECT_TRUE(live.liveIn(head).test(z));
    EXPECT_TRUE(live.liveIn(entry).test(z));
}

TEST(LivenessUpdate, BoundedUpdateLeavesUpstreamRanksDirty)
{
    // entry -> a -> mid -> exit. mid gains a store of a new register z.
    // An update bounded by mid solves mid's rank; a and entry rank
    // higher and stay dirty (stale) until an unbounded update.
    Function fn;
    IRBuilder b(fn);
    BlockId entry = b.makeBlock("entry");
    BlockId a = b.makeBlock("a");
    BlockId mid = b.makeBlock("mid");
    BlockId exit = b.makeBlock("exit");
    fn.setEntry(entry);
    Vreg x = fn.newVreg();
    fn.argRegs = {x};
    b.setBlock(entry);
    b.br(a);
    b.setBlock(a);
    b.store(IRBuilder::imm(0), IRBuilder::imm(0), IRBuilder::r(x));
    b.br(mid);
    b.setBlock(mid);
    b.br(exit);
    b.setBlock(exit);
    b.ret();

    Liveness live(fn);
    Vreg z = fn.newVreg();
    fn.block(mid)->insts.clear();
    b.setBlock(mid);
    b.store(IRBuilder::imm(0), IRBuilder::imm(0), IRBuilder::r(z));
    b.br(exit);

    const std::vector<BlockId> reads{mid, exit};
    EXPECT_EQ(live.update(fn, {mid}, fn.predecessors(), &reads),
              Liveness::UpdatePath::Local);
    EXPECT_TRUE(live.solvedFor(&reads));
    EXPECT_FALSE(live.solvedFor());
    EXPECT_TRUE(live.liveIn(mid).test(z));
    EXPECT_FALSE(live.liveIn(a).test(z)) << "a ranks above the bound";

    EXPECT_EQ(live.update(fn, {}, fn.predecessors()),
              Liveness::UpdatePath::Local);
    EXPECT_TRUE(live.solvedFor());
    expectUpdateMatchesFresh(live, fn);
    EXPECT_TRUE(live.liveIn(entry).test(z));
}

TEST(LivenessUpdate, EdgeClimbingTheRankOrderRebuilds)
{
    // entry -> hi -> lo -> exit ranks lo below hi. Then lo gains an edge
    // back to hi, and hi a store of y. Solved in the old rank order, lo
    // would read hi's stale live-in, so the update rebuilds -- even a
    // bounded one that reads only lo.
    Function fn;
    IRBuilder b(fn);
    BlockId entry = b.makeBlock("entry");
    BlockId hi = b.makeBlock("hi");
    BlockId lo = b.makeBlock("lo");
    BlockId exit = b.makeBlock("exit");
    fn.setEntry(entry);
    Vreg p = fn.newVreg(), y = fn.newVreg();
    fn.argRegs = {p, y};
    b.setBlock(entry);
    b.br(hi);
    b.setBlock(hi);
    b.br(lo);
    b.setBlock(lo);
    b.br(exit);
    b.setBlock(exit);
    b.ret();

    Liveness live(fn);
    ASSERT_FALSE(live.liveIn(lo).test(y));
    fn.block(lo)->insts.clear();
    b.setBlock(lo);
    b.brCond(p, hi, exit);
    fn.block(hi)->insts.clear();
    b.setBlock(hi);
    b.store(IRBuilder::imm(0), IRBuilder::imm(0), IRBuilder::r(y));
    b.br(lo);

    const std::vector<BlockId> reads{lo};
    EXPECT_EQ(live.update(fn, {lo, hi}, fn.predecessors(), &reads),
              Liveness::UpdatePath::Rebuild);
    EXPECT_TRUE(live.solvedFor());
    expectUpdateMatchesFresh(live, fn);
    EXPECT_TRUE(live.liveIn(lo).test(y));
}

/**
 * entry -> hb -> {s, z}; s -> {x, y}; x, y, z -> exit. s's only
 * predecessor is hb; s, x and y each store a register of their own.
 */
struct SpliceCfg
{
    Function fn;
    BlockId entry, hb, s, x, y, z, exit;
    Vreg p, q, u, v, w;

    SpliceCfg()
    {
        IRBuilder b(fn);
        entry = b.makeBlock("entry");
        hb = b.makeBlock("hb");
        s = b.makeBlock("s");
        x = b.makeBlock("x");
        y = b.makeBlock("y");
        z = b.makeBlock("z");
        exit = b.makeBlock("exit");
        fn.setEntry(entry);
        p = fn.newVreg();
        q = fn.newVreg();
        u = fn.newVreg();
        v = fn.newVreg();
        w = fn.newVreg();
        fn.argRegs = {p, q, u, v, w};
        b.setBlock(entry);
        b.br(hb);
        b.setBlock(hb);
        b.brCond(p, s, z);
        b.setBlock(s);
        b.store(IRBuilder::imm(0), IRBuilder::imm(0), IRBuilder::r(u));
        b.brCond(q, x, y);
        b.setBlock(x);
        b.store(IRBuilder::imm(0), IRBuilder::imm(0), IRBuilder::r(v));
        b.br(exit);
        b.setBlock(y);
        b.store(IRBuilder::imm(0), IRBuilder::imm(0), IRBuilder::r(w));
        b.br(exit);
        b.setBlock(z);
        b.br(exit);
        b.setBlock(exit);
        b.ret();
    }

    /** hb absorbs s (predicated on p) and branches to @p targets of
     *  s's; s is removed. */
    void
    splice(const std::vector<BlockId> &targets)
    {
        BasicBlock &bb = *fn.block(hb);
        bb.insts.clear();
        IRBuilder b(fn);
        b.setBlock(hb);
        b.emit(Instruction::br(z, Predicate::onReg(p, false)));
        Instruction st = Instruction::store(
            IRBuilder::imm(0), IRBuilder::imm(0), IRBuilder::r(u));
        st.pred = Predicate::onReg(p, true);
        b.emit(st);
        for (BlockId t : targets)
            b.emit(Instruction::br(t, Predicate::onReg(q, t == x)));
        fn.removeBlock(s);
    }
};

TEST(LivenessUpdate, SpliceShapedEditStaysLocal)
{
    // Every edge that went away left the removed s, and hb, s's only
    // predecessor, now branches to each of s's targets: no block can
    // be cut off, so the update does not walk.
    SpliceCfg g;
    Liveness live(g.fn);
    g.splice({g.x, g.y});
    EXPECT_EQ(live.update(g.fn, {g.hb, g.s}, g.fn.predecessors()),
              Liveness::UpdatePath::Local);
    expectUpdateMatchesFresh(live, g.fn);
    EXPECT_TRUE(live.liveIn(g.s).none());
    EXPECT_TRUE(live.liveIn(g.hb).test(g.w));
}

TEST(LivenessUpdate, SpliceThatDropsATargetWalks)
{
    // hb takes s's edge to x but not the one to y (as when merge
    // optimization folds a branch): y may be cut off, so the update
    // walks, and y, now unreachable, goes to bottom.
    SpliceCfg g;
    Liveness live(g.fn);
    g.splice({g.x});
    EXPECT_EQ(live.update(g.fn, {g.hb, g.s}, g.fn.predecessors()),
              Liveness::UpdatePath::Walk);
    expectUpdateMatchesFresh(live, g.fn);
    EXPECT_TRUE(live.liveIn(g.y).none());
    EXPECT_FALSE(live.liveIn(g.hb).test(g.w));
}

TEST(LivenessUpdate, TailDupShapedEditWalks)
{
    // hb's edge into s goes away while s survives (tail duplication
    // leaves s for its other predecessors): the update walks.
    SpliceCfg g;
    IRBuilder b(g.fn);
    b.setBlock(g.z);
    g.fn.block(g.z)->insts.clear();
    b.br(g.s);
    Liveness live(g.fn);
    BasicBlock &hb = *g.fn.block(g.hb);
    hb.insts.clear();
    b.setBlock(g.hb);
    b.brCond(g.q, g.x, g.z);
    EXPECT_EQ(live.update(g.fn, {g.hb}, g.fn.predecessors()),
              Liveness::UpdatePath::Walk);
    expectUpdateMatchesFresh(live, g.fn);
    EXPECT_TRUE(live.liveIn(g.s).test(g.u));
}

/** A store of @p v to address 0, under @p pred when it is valid. */
Instruction
storeOf(Vreg v, Predicate pred = {})
{
    Instruction st = Instruction::store(IRBuilder::imm(0), IRBuilder::imm(0),
                                        IRBuilder::r(v));
    st.pred = pred;
    return st;
}

/** A move of 1 into @p v under @p pred. */
Instruction
predicatedDef(Vreg v, Predicate pred)
{
    Instruction mov = Instruction::unary(Opcode::Mov, v, IRBuilder::imm(1));
    mov.pred = pred;
    return mov;
}

TEST(LivenessUpdate, PredicatedDefThenUseBecomesANewName)
{
    // entry -> a -> exit. a first writes t, then stores it: t is read
    // only after an unpredicated write, so no block exposes it. Then
    // the write goes under p (as if-conversion would put it): a now
    // reads t before any unpredicated write, and t is live into a and
    // into the entry. The edit comes through instructionsRewritten.
    Function fn;
    IRBuilder b(fn);
    BlockId entry = b.makeBlock("entry");
    BlockId a = b.makeBlock("a");
    BlockId exit = b.makeBlock("exit");
    fn.setEntry(entry);
    Vreg p = fn.newVreg(), t = fn.newVreg();
    fn.argRegs = {p};
    b.setBlock(entry);
    b.br(a);
    b.setBlock(a);
    b.movTo(t, IRBuilder::imm(1));
    b.emit(storeOf(t));
    b.br(exit);
    b.setBlock(exit);
    b.ret();

    AnalysisManager am(fn);
    ASSERT_FALSE(am.liveness().liveInContains(a, t));
    std::vector<Instruction> &insts = fn.block(a)->insts;
    insts[0] = predicatedDef(t, Predicate::onReg(p, true));
    am.instructionsRewritten(a);
    const Liveness &live = am.liveness();
    expectUpdateMatchesFresh(live, fn);
    EXPECT_TRUE(live.liveInContains(a, t));
    EXPECT_TRUE(live.liveInContains(entry, t));
    EXPECT_TRUE(live.liveInContains(a, p));
    EXPECT_EQ(am.stats().get("analysisLivenessUpdates"), 1);
    EXPECT_EQ(am.stats().get("analysisLivenessRebuilds"), 0);
}

TEST(LivenessUpdate, NewNameIsKilledInAnUnlistedBlock)
{
    // entry -> k -> a -> exit. Three updates, each listing only the
    // block it edits, and each checked against a fresh solve:
    //  1. a exposes u: the first new name, which builds the index of
    //     which blocks write which register;
    //  2. k gains an unpredicated write of t (t is no name yet);
    //  3. a exposes t. t is live into a but not into k, which kills
    //     it, although only a is listed: k's kill bit for the new name
    //     comes from the index, which learned of k's write in step 2.
    Function fn;
    IRBuilder b(fn);
    BlockId entry = b.makeBlock("entry");
    BlockId k = b.makeBlock("k");
    BlockId a = b.makeBlock("a");
    BlockId exit = b.makeBlock("exit");
    fn.setEntry(entry);
    Vreg p = fn.newVreg(), t = fn.newVreg(), u = fn.newVreg();
    fn.argRegs = {p};
    b.setBlock(entry);
    b.br(k);
    b.setBlock(k);
    b.br(a);
    b.setBlock(a);
    b.br(exit);
    b.setBlock(exit);
    b.ret();
    const PredecessorMap preds = fn.predecessors();
    const Predicate on_p = Predicate::onReg(p, true);
    std::vector<Instruction> &a_insts = fn.block(a)->insts;
    std::vector<Instruction> &k_insts = fn.block(k)->insts;

    Liveness live(fn);
    a_insts.insert(a_insts.begin(), storeOf(u));
    EXPECT_EQ(live.update(fn, {a}, preds), Liveness::UpdatePath::Local);
    expectUpdateMatchesFresh(live, fn);
    EXPECT_TRUE(live.liveInContains(entry, u));

    k_insts.insert(k_insts.begin(),
                   Instruction::unary(Opcode::Mov, t, IRBuilder::imm(2)));
    EXPECT_EQ(live.update(fn, {k}, preds), Liveness::UpdatePath::Local);
    expectUpdateMatchesFresh(live, fn);

    a_insts.insert(a_insts.begin(),
                   {predicatedDef(t, on_p), storeOf(t, on_p)});
    EXPECT_EQ(live.update(fn, {a}, preds), Liveness::UpdatePath::Local);
    expectUpdateMatchesFresh(live, fn);
    EXPECT_TRUE(live.liveInContains(a, t));
    EXPECT_TRUE(live.liveOutContains(k, t));
    EXPECT_FALSE(live.liveInContains(k, t));
    EXPECT_FALSE(live.liveInContains(entry, t));
}

TEST(LivenessUpdate, MoreNewNamesThanTheCapacity)
{
    // entry -> mid -> a -> exit with two names. mid writes every other
    // one of 1,100 registers that nothing reads; then a reads them all
    // in one update, which outgrows the name sets' one-word capacity
    // five doublings over (and liveOutOf's 1,024-name chunk). The half
    // mid writes stops at mid, unlisted.
    Function fn;
    IRBuilder b(fn);
    BlockId entry = b.makeBlock("entry");
    BlockId mid = b.makeBlock("mid");
    BlockId a = b.makeBlock("a");
    BlockId exit = b.makeBlock("exit");
    fn.setEntry(entry);
    Vreg x = fn.newVreg(), y = fn.newVreg();
    fn.argRegs = {x, y};
    std::vector<Vreg> regs;
    for (int i = 0; i < 1100; ++i)
        regs.push_back(fn.newVreg());
    b.setBlock(entry);
    b.emit(storeOf(x));
    b.br(mid);
    b.setBlock(mid);
    for (size_t i = 0; i < regs.size(); i += 2)
        b.movTo(regs[i], IRBuilder::imm(static_cast<int64_t>(i)));
    b.br(a);
    b.setBlock(a);
    b.emit(storeOf(y));
    b.br(exit);
    b.setBlock(exit);
    b.ret();

    Liveness live(fn);
    std::vector<Instruction> &insts = fn.block(a)->insts;
    for (Vreg v : regs)
        insts.insert(insts.begin(), storeOf(v));
    EXPECT_EQ(live.update(fn, {a}, fn.predecessors()),
              Liveness::UpdatePath::Local);
    expectUpdateMatchesFresh(live, fn);
    for (size_t i = 0; i < regs.size(); ++i) {
        EXPECT_TRUE(live.liveInContains(a, regs[i]));
        EXPECT_EQ(live.liveInContains(mid, regs[i]), i % 2 == 1);
        EXPECT_EQ(live.liveInContains(entry, regs[i]), i % 2 == 1);
    }
    EXPECT_TRUE(live.liveInContains(entry, y));
}

/**
 * The per-loop trace scan computeTripHistograms replaced: one pass over
 * the whole trace per loop. Kept as the single pass's reference.
 */
TripCountHistograms
perLoopTripHistograms(const std::vector<BlockId> &trace,
                      const LoopInfo &loops)
{
    TripCountHistograms result;
    for (const Loop &loop : loops.loops()) {
        bool active = false;
        uint64_t trips = 0;
        for (BlockId b : trace) {
            if (b == loop.header) {
                trips = active ? trips + 1 : 1;
                active = true;
            } else if (active && !loop.contains(b)) {
                result.record(loop.header, trips > 0 ? trips - 1 : 0);
                active = false;
                trips = 0;
            }
        }
        if (active)
            result.record(loop.header, trips > 0 ? trips - 1 : 0);
    }
    return result;
}

TEST(Profile, TripHistogramsMatchPerLoopScan)
{
    // The Table 1/2 kernels, synth64, and generated programs, irreducible
    // ones included (their traces enter loops other than at the header).
    std::vector<Program> programs;
    for (const Workload &w : microbenchmarks())
        programs.push_back(buildWorkload(w));
    programs.push_back(buildWorkload(synthFormationWorkload(64)));
    for (const char *shape_name : {"bench", "irreducible"}) {
        GeneratorShape shape;
        ASSERT_TRUE(namedShape(shape_name, &shape));
        for (uint64_t seed = 1; seed <= 50; ++seed)
            programs.push_back(buildGenerated(generateTinyC(seed, shape)));
    }

    size_t loops_seen = 0;
    for (size_t i = 0; i < programs.size(); ++i) {
        const Program &program = programs[i];
        FuncSimOptions options;
        options.recordTrace = true;
        FuncSimResult run =
            runFunctional(program, program.defaultArgs, options);
        LoopInfo loops(program.fn);
        TripCountHistograms got = computeTripHistograms(run.trace, loops);
        TripCountHistograms want = perLoopTripHistograms(run.trace, loops);
        for (const Loop &loop : loops.loops()) {
            EXPECT_EQ(got.histogram(loop.header),
                      want.histogram(loop.header))
                << "program " << i << " loop at bb" << loop.header;
            ++loops_seen;
        }
    }
    EXPECT_GT(loops_seen, 300u);
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
