/**
 * @file
 * Scalar optimization tests: value numbering (folding, CSE, algebraic
 * and boolean rules, redundant loads), copy propagation, move
 * coalescing, DCE, the predicate optimizations, and optimizeBlock, the
 * whole per-trial pipeline the merge engine runs on a merged block.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/liveness.h"
#include "ir/builder.h"
#include "ir/printer.h"
#include "transform/copy_prop.h"
#include "transform/dce.h"
#include "transform/gvn.h"
#include "transform/optimize.h"
#include "transform/pred_opt.h"

namespace chf {
namespace {

/** Count instructions with a given opcode. */
size_t
countOp(const BasicBlock &bb, Opcode op)
{
    size_t n = 0;
    for (const auto &inst : bb.insts) {
        if (inst.op == op)
            ++n;
    }
    return n;
}

/**
 * Fresh-scratch calls of the per-block passes: every call gets its own
 * working storage, the behavior a reused scratch must reproduce.
 */
size_t
gvn(BasicBlock &bb)
{
    GvnScratch scratch;
    return valueNumberBlock(bb, scratch);
}

size_t
copyProp(BasicBlock &bb)
{
    CopyPropScratch scratch;
    return copyPropagateBlock(bb, scratch);
}

size_t
coalesce(BasicBlock &bb, const BitVector &live_out)
{
    CoalesceScratch scratch;
    return coalesceMoves(bb, live_out, scratch);
}

size_t
dce(BasicBlock &bb, const BitVector &live_out)
{
    DceScratch scratch;
    return eliminateDeadCode(bb, live_out, scratch);
}

size_t
predOpt(BasicBlock &bb, const BitVector &live_out)
{
    PredOptScratch scratch;
    return optimizePredicates(bb, live_out, scratch);
}

size_t
optimize(BasicBlock &bb, const BitVector &live_out,
         OptPassStats *stats = nullptr)
{
    BlockOptScratch scratch;
    return optimizeBlock(bb, live_out, scratch, stats);
}

struct BlockFixture
{
    Function fn;
    IRBuilder builder{fn};
    BlockId block;

    BlockFixture()
    {
        block = builder.makeBlock();
        fn.setEntry(block);
        builder.setBlock(block);
    }

    BasicBlock &bb() { return *fn.block(block); }
};

// ----- Value numbering -----

TEST(Gvn, ConstantFolding)
{
    BlockFixture f;
    Vreg a = f.builder.constant(6);
    Vreg b = f.builder.constant(7);
    Vreg c = f.builder.mul(IRBuilder::r(a), IRBuilder::r(b));
    f.builder.ret(IRBuilder::r(c));

    gvn(f.bb());
    // The multiply became mov c, #42.
    const Instruction &inst = f.bb().insts[2];
    EXPECT_EQ(inst.op, Opcode::Mov);
    EXPECT_TRUE(inst.srcs[0].isImm());
    EXPECT_EQ(inst.srcs[0].imm, 42);
}

TEST(Gvn, CommonSubexpressionElimination)
{
    BlockFixture f;
    Vreg x = f.fn.newVreg();
    Vreg y = f.fn.newVreg();
    f.builder.movTo(x, IRBuilder::imm(5));
    Vreg a = f.builder.add(IRBuilder::r(x), IRBuilder::r(y));
    Vreg b = f.builder.add(IRBuilder::r(x), IRBuilder::r(y));
    f.builder.store(IRBuilder::imm(0), IRBuilder::imm(0),
                    IRBuilder::r(a));
    f.builder.store(IRBuilder::imm(0), IRBuilder::imm(1),
                    IRBuilder::r(b));
    f.builder.ret();

    EXPECT_GT(gvn(f.bb()), 0u);
    EXPECT_EQ(countOp(f.bb(), Opcode::Add), 1u);
}

TEST(Gvn, CommutativeCanonicalizationHits)
{
    BlockFixture f;
    Vreg x = f.fn.newVreg();
    Vreg y = f.fn.newVreg();
    Vreg a = f.builder.add(IRBuilder::r(x), IRBuilder::r(y));
    Vreg b = f.builder.add(IRBuilder::r(y), IRBuilder::r(x));
    f.builder.store(IRBuilder::imm(0), IRBuilder::imm(0),
                    IRBuilder::r(a));
    f.builder.store(IRBuilder::imm(0), IRBuilder::imm(1),
                    IRBuilder::r(b));
    f.builder.ret();

    gvn(f.bb());
    EXPECT_EQ(countOp(f.bb(), Opcode::Add), 1u);
}

TEST(Gvn, CseRespectsRedefinition)
{
    BlockFixture f;
    Vreg x = f.fn.newVreg();
    Vreg w = f.fn.newVreg();
    Vreg a = f.builder.add(IRBuilder::r(x), IRBuilder::imm(1));
    f.builder.movTo(x, IRBuilder::r(w)); // x changes (unknown value)
    Vreg b = f.builder.add(IRBuilder::r(x), IRBuilder::imm(1));
    f.builder.store(IRBuilder::imm(0), IRBuilder::imm(0),
                    IRBuilder::r(a));
    f.builder.store(IRBuilder::imm(0), IRBuilder::imm(1),
                    IRBuilder::r(b));
    f.builder.ret();

    gvn(f.bb());
    EXPECT_EQ(countOp(f.bb(), Opcode::Add), 2u); // both stay
}

TEST(Gvn, AlgebraicIdentities)
{
    BlockFixture f;
    Vreg x = f.fn.newVreg();
    Vreg a = f.builder.add(IRBuilder::r(x), IRBuilder::imm(0));
    Vreg b = f.builder.mul(IRBuilder::r(a), IRBuilder::imm(1));
    Vreg c = f.builder.sub(IRBuilder::r(b), IRBuilder::r(b));
    f.builder.ret(IRBuilder::r(c));

    gvn(f.bb());
    EXPECT_EQ(countOp(f.bb(), Opcode::Add), 0u);
    EXPECT_EQ(countOp(f.bb(), Opcode::Mul), 0u);
    EXPECT_EQ(countOp(f.bb(), Opcode::Sub), 0u);
}

TEST(Gvn, BooleanRules)
{
    BlockFixture f;
    Vreg x = f.fn.newVreg();
    Vreg t = f.builder.binary(Opcode::Tlt, IRBuilder::r(x),
                              IRBuilder::imm(10));
    // tne(t, 0) == t for a boolean t.
    Vreg n = f.builder.binary(Opcode::Tne, IRBuilder::r(t),
                              IRBuilder::imm(0));
    // band(1, t) == t.
    Vreg g = f.builder.binary(Opcode::Band, IRBuilder::imm(1),
                              IRBuilder::r(n));
    f.builder.ret(IRBuilder::r(g));

    gvn(f.bb());
    EXPECT_EQ(countOp(f.bb(), Opcode::Tne), 0u);
    EXPECT_EQ(countOp(f.bb(), Opcode::Band), 0u);
}

TEST(Gvn, DiamondJoinGuardCollapses)
{
    // or(band(p, c), bandc(p, c)) == p when p is boolean.
    BlockFixture f;
    Vreg x = f.fn.newVreg();
    Vreg p = f.builder.binary(Opcode::Tlt, IRBuilder::r(x),
                              IRBuilder::imm(5));
    Vreg c = f.builder.binary(Opcode::Tgt, IRBuilder::r(x),
                              IRBuilder::imm(2));
    Vreg a = f.builder.binary(Opcode::Band, IRBuilder::r(p),
                              IRBuilder::r(c));
    Vreg b = f.builder.binary(Opcode::Bandc, IRBuilder::r(p),
                              IRBuilder::r(c));
    Vreg j = f.builder.binary(Opcode::Or, IRBuilder::r(a),
                              IRBuilder::r(b));
    f.builder.ret(IRBuilder::r(j));

    gvn(f.bb());
    EXPECT_EQ(countOp(f.bb(), Opcode::Or), 0u);
}

TEST(Gvn, RedundantLoadElimination)
{
    BlockFixture f;
    Vreg base = f.fn.newVreg();
    Vreg a = f.builder.load(IRBuilder::r(base), IRBuilder::imm(3));
    Vreg b = f.builder.load(IRBuilder::r(base), IRBuilder::imm(3));
    f.builder.store(IRBuilder::imm(0), IRBuilder::imm(0),
                    IRBuilder::r(a));
    f.builder.store(IRBuilder::imm(0), IRBuilder::imm(1),
                    IRBuilder::r(b));
    f.builder.ret();

    gvn(f.bb());
    EXPECT_EQ(countOp(f.bb(), Opcode::Load), 1u);
}

TEST(Gvn, LoadNotEliminatedAcrossStore)
{
    BlockFixture f;
    Vreg base = f.fn.newVreg();
    Vreg a = f.builder.load(IRBuilder::r(base), IRBuilder::imm(3));
    f.builder.store(IRBuilder::r(base), IRBuilder::imm(3),
                    IRBuilder::imm(7));
    Vreg b = f.builder.load(IRBuilder::r(base), IRBuilder::imm(3));
    f.builder.store(IRBuilder::imm(0), IRBuilder::imm(0),
                    IRBuilder::r(a));
    f.builder.store(IRBuilder::imm(0), IRBuilder::imm(1),
                    IRBuilder::r(b));
    f.builder.ret();

    gvn(f.bb());
    EXPECT_EQ(countOp(f.bb(), Opcode::Load), 2u);
}

TEST(Gvn, ConstantPredicateResolved)
{
    BlockFixture f;
    Vreg p = f.builder.constant(1);
    Instruction guarded = Instruction::unary(Opcode::Mov, f.fn.newVreg(),
                                             Operand::makeImm(7));
    guarded.pred = Predicate::onReg(p, true);
    f.builder.emit(guarded);
    f.builder.ret();

    gvn(f.bb());
    EXPECT_FALSE(f.bb().insts[1].pred.valid()); // guard dropped
}

TEST(Gvn, PredicatedCseKeepsPredicate)
{
    BlockFixture f;
    Vreg x = f.fn.newVreg();
    Vreg p = f.fn.newVreg();
    Instruction first = Instruction::binary(
        Opcode::Add, f.fn.newVreg(), Operand::makeReg(x),
        Operand::makeImm(1));
    first.pred = Predicate::onReg(p, true);
    Instruction second = Instruction::binary(
        Opcode::Add, f.fn.newVreg(), Operand::makeReg(x),
        Operand::makeImm(1));
    second.pred = Predicate::onReg(p, true);
    f.builder.emit(first);
    f.builder.emit(second);
    f.builder.ret();

    gvn(f.bb());
    EXPECT_EQ(countOp(f.bb(), Opcode::Add), 1u);
    // The forwarding move stays guarded so the merge semantics hold.
    EXPECT_EQ(f.bb().insts[1].op, Opcode::Mov);
    EXPECT_TRUE(f.bb().insts[1].pred.valid());
}

// ----- Copy propagation & coalescing -----

TEST(CopyProp, ForwardsThroughMoves)
{
    BlockFixture f;
    Vreg x = f.fn.newVreg(); // unknown value from another block
    Vreg y = f.fn.newVreg();
    f.builder.movTo(y, IRBuilder::r(x));
    Vreg z = f.builder.add(IRBuilder::r(y), IRBuilder::imm(1));
    f.builder.ret(IRBuilder::r(z));

    EXPECT_GT(copyProp(f.bb()), 0u);
    const Instruction &add = f.bb().insts[1];
    EXPECT_TRUE(add.srcs[0].isReg());
    EXPECT_EQ(add.srcs[0].reg, x);
}

TEST(CopyProp, StopsAtRedefinition)
{
    BlockFixture f;
    Vreg x = f.fn.newVreg();
    Vreg y = f.fn.newVreg();
    f.builder.movTo(y, IRBuilder::r(x));
    f.builder.movTo(x, IRBuilder::imm(9)); // x changes; y must not follow
    Vreg z = f.builder.add(IRBuilder::r(y), IRBuilder::imm(1));
    f.builder.ret(IRBuilder::r(z));

    copyProp(f.bb());
    const Instruction &add = f.bb().insts[2];
    EXPECT_EQ(add.srcs[0].reg, y);
}

TEST(CopyProp, DoesNotForwardPredicatedMoves)
{
    BlockFixture f;
    Vreg x = f.builder.constant(3);
    Vreg p = f.fn.newVreg();
    Vreg y = f.fn.newVreg();
    Instruction mov =
        Instruction::unary(Opcode::Mov, y, Operand::makeReg(x));
    mov.pred = Predicate::onReg(p, true);
    f.builder.emit(mov);
    Vreg z = f.builder.add(IRBuilder::r(y), IRBuilder::imm(1));
    f.builder.ret(IRBuilder::r(z));

    copyProp(f.bb());
    EXPECT_EQ(f.bb().insts[2].srcs[0].reg, y);
}

TEST(CoalesceMoves, FoldsTempIntoVariable)
{
    // t = add i, 1 ; i = mov t   =>   i = add i, 1
    BlockFixture f;
    Vreg i = f.fn.newVreg();
    Vreg t = f.builder.add(IRBuilder::r(i), IRBuilder::imm(1));
    f.builder.movTo(i, IRBuilder::r(t));
    f.builder.ret(IRBuilder::r(i));

    BitVector live_out(f.fn.numVregs());
    EXPECT_EQ(coalesce(f.bb(), live_out), 1u);
    EXPECT_EQ(f.bb().insts[0].op, Opcode::Add);
    EXPECT_EQ(f.bb().insts[0].dest, i);
    EXPECT_EQ(countOp(f.bb(), Opcode::Mov), 0u);
}

TEST(CoalesceMoves, RefusesWhenTempHasOtherUses)
{
    BlockFixture f;
    Vreg i = f.fn.newVreg();
    Vreg t = f.builder.add(IRBuilder::r(i), IRBuilder::imm(1));
    f.builder.movTo(i, IRBuilder::r(t));
    f.builder.store(IRBuilder::imm(0), IRBuilder::imm(0),
                    IRBuilder::r(t)); // second use of t
    f.builder.ret(IRBuilder::r(i));

    BitVector live_out(f.fn.numVregs());
    EXPECT_EQ(coalesce(f.bb(), live_out), 0u);
}

TEST(CoalesceMoves, RefusesWhenDestReadBetween)
{
    BlockFixture f;
    Vreg i = f.fn.newVreg();
    Vreg t = f.builder.add(IRBuilder::r(i), IRBuilder::imm(1));
    f.builder.store(IRBuilder::imm(0), IRBuilder::imm(0),
                    IRBuilder::r(i)); // reads old i
    f.builder.movTo(i, IRBuilder::r(t));
    f.builder.ret(IRBuilder::r(i));

    BitVector live_out(f.fn.numVregs());
    EXPECT_EQ(coalesce(f.bb(), live_out), 0u);
}

// ----- DCE -----

TEST(Dce, RemovesDeadPureCode)
{
    BlockFixture f;
    Vreg x = f.builder.constant(3);
    f.builder.add(IRBuilder::r(x), IRBuilder::imm(1)); // dead
    Vreg y = f.builder.mul(IRBuilder::r(x), IRBuilder::imm(2));
    f.builder.ret(IRBuilder::r(y));

    BitVector live_out(f.fn.numVregs());
    EXPECT_EQ(dce(f.bb(), live_out), 1u);
    EXPECT_EQ(countOp(f.bb(), Opcode::Add), 0u);
    EXPECT_EQ(countOp(f.bb(), Opcode::Mul), 1u);
}

TEST(Dce, KeepsLiveOutValues)
{
    BlockFixture f;
    Vreg x = f.builder.constant(3);
    Vreg y = f.builder.add(IRBuilder::r(x), IRBuilder::imm(1));
    f.builder.ret();

    BitVector live_out(f.fn.numVregs());
    live_out.set(y);
    EXPECT_EQ(dce(f.bb(), live_out), 0u);
}

TEST(Dce, KeepsStoresAndRemovesDeadLoads)
{
    BlockFixture f;
    f.builder.load(IRBuilder::imm(0), IRBuilder::imm(0)); // dead load
    f.builder.store(IRBuilder::imm(0), IRBuilder::imm(0),
                    IRBuilder::imm(1)); // side effect
    f.builder.ret();

    BitVector live_out(f.fn.numVregs());
    EXPECT_EQ(dce(f.bb(), live_out), 1u);
    EXPECT_EQ(countOp(f.bb(), Opcode::Store), 1u);
    EXPECT_EQ(countOp(f.bb(), Opcode::Load), 0u);
}

TEST(Dce, DeadChainRemovedInOnePass)
{
    BlockFixture f;
    Vreg a = f.builder.constant(1);
    Vreg b = f.builder.add(IRBuilder::r(a), IRBuilder::imm(1));
    f.builder.add(IRBuilder::r(b), IRBuilder::imm(1)); // c dead, then b, a
    f.builder.ret(IRBuilder::imm(0));

    BitVector live_out(f.fn.numVregs());
    EXPECT_EQ(dce(f.bb(), live_out), 3u);
    EXPECT_EQ(f.bb().size(), 1u); // only the ret remains
}

// ----- Predicate optimizations -----

TEST(PredOpt, MergesComplementaryPairs)
{
    BlockFixture f;
    Vreg p = f.fn.newVreg();
    Vreg x = f.fn.newVreg();
    Vreg d = f.fn.newVreg();
    Instruction then_inst = Instruction::binary(
        Opcode::Add, d, Operand::makeReg(x), Operand::makeImm(1));
    then_inst.pred = Predicate::onReg(p, true);
    Instruction else_inst = then_inst;
    else_inst.pred = Predicate::onReg(p, false);
    f.builder.emit(then_inst);
    f.builder.emit(else_inst);
    f.builder.ret(IRBuilder::r(d));

    BitVector live_out(f.fn.numVregs());
    EXPECT_EQ(predOpt(f.bb(), live_out), 1u);
    EXPECT_EQ(countOp(f.bb(), Opcode::Add), 1u);
    EXPECT_FALSE(f.bb().insts[0].pred.valid());
}

TEST(PredOpt, NoMergeWhenDestReadBetween)
{
    BlockFixture f;
    Vreg p = f.fn.newVreg();
    Vreg x = f.fn.newVreg();
    Vreg d = f.fn.newVreg();
    Instruction then_inst = Instruction::binary(
        Opcode::Add, d, Operand::makeReg(x), Operand::makeImm(1));
    then_inst.pred = Predicate::onReg(p, true);
    f.builder.emit(then_inst);
    f.builder.store(IRBuilder::imm(0), IRBuilder::imm(0),
                    IRBuilder::r(d)); // observes d between the pair
    Instruction else_inst = then_inst;
    else_inst.pred = Predicate::onReg(p, false);
    f.builder.emit(else_inst);
    f.builder.ret(IRBuilder::r(d));

    BitVector live_out(f.fn.numVregs());
    predOpt(f.bb(), live_out);
    EXPECT_EQ(countOp(f.bb(), Opcode::Add), 2u);
}

TEST(PredOpt, DropsInteriorChainPredicates)
{
    // All of a predicated chain's interior drops its guards; the
    // consumer keeps its guard (it writes a live-out value).
    BlockFixture f;
    Vreg p = f.fn.newVreg();
    Vreg x = f.fn.newVreg();
    Vreg out = f.fn.newVreg();

    auto guarded = [&](Opcode op, Vreg dest, Operand a, Operand b) {
        Instruction inst = Instruction::binary(op, dest, a, b);
        inst.pred = Predicate::onReg(p, true);
        f.builder.emit(inst);
    };
    Vreg t1 = f.fn.newVreg(), t2 = f.fn.newVreg();
    guarded(Opcode::Add, t1, IRBuilder::r(x), IRBuilder::imm(1));
    guarded(Opcode::Mul, t2, IRBuilder::r(t1), IRBuilder::imm(3));
    guarded(Opcode::Add, out, IRBuilder::r(t2), IRBuilder::imm(5));
    f.builder.ret(IRBuilder::r(out));

    BitVector live_out(f.fn.numVregs());
    live_out.set(out);
    EXPECT_EQ(predOpt(f.bb(), live_out), 2u);
    EXPECT_FALSE(f.bb().insts[0].pred.valid()); // t1 unguarded
    EXPECT_FALSE(f.bb().insts[1].pred.valid()); // t2 unguarded
    EXPECT_TRUE(f.bb().insts[2].pred.valid());  // out keeps its guard
}

TEST(PredOpt, KeepsGuardWhenConsumersDiffer)
{
    BlockFixture f;
    Vreg p = f.fn.newVreg();
    Vreg q = f.fn.newVreg();
    Vreg x = f.fn.newVreg();
    Vreg t = f.fn.newVreg();
    Vreg out = f.fn.newVreg();

    Instruction producer = Instruction::binary(
        Opcode::Add, t, Operand::makeReg(x), Operand::makeImm(1));
    producer.pred = Predicate::onReg(p, true);
    f.builder.emit(producer);
    Instruction consumer = Instruction::binary(
        Opcode::Mul, out, Operand::makeReg(t), Operand::makeImm(2));
    consumer.pred = Predicate::onReg(q, true); // different guard
    f.builder.emit(consumer);
    f.builder.ret(IRBuilder::r(out));

    BitVector live_out(f.fn.numVregs());
    live_out.set(out);
    predOpt(f.bb(), live_out);
    EXPECT_TRUE(f.bb().insts[0].pred.valid()); // must stay guarded
}

TEST(PredOpt, NeverDropsStoreOrBranchGuards)
{
    BlockFixture f;
    Vreg p = f.fn.newVreg();
    Instruction store = Instruction::store(
        Operand::makeImm(0), Operand::makeImm(0), Operand::makeImm(1));
    store.pred = Predicate::onReg(p, true);
    f.builder.emit(store);
    f.builder.emit(
        Instruction::ret(Operand::makeNone(), Predicate::onReg(p, true)));
    f.builder.emit(
        Instruction::ret(Operand::makeNone(),
                         Predicate::onReg(p, false)));

    BitVector live_out(f.fn.numVregs());
    predOpt(f.bb(), live_out);
    EXPECT_TRUE(f.bb().insts[0].pred.valid());
    EXPECT_TRUE(f.bb().insts[1].pred.valid());
}

} // namespace
} // namespace chf

namespace chf {
namespace {

// ----- Strength reduction & dominator-based GVN (appended) -----

TEST(Gvn, StrengthReducesPowerOfTwoMultiply)
{
    BlockFixture f;
    Vreg x = f.fn.newVreg();
    Vreg y = f.builder.mul(IRBuilder::r(x), IRBuilder::imm(8));
    Vreg z = f.builder.mul(IRBuilder::imm(16), IRBuilder::r(y));
    f.builder.ret(IRBuilder::r(z));

    gvn(f.bb());
    EXPECT_EQ(countOp(f.bb(), Opcode::Mul), 0u);
    EXPECT_EQ(countOp(f.bb(), Opcode::Shl), 2u);
    EXPECT_EQ(f.bb().insts[0].srcs[1].imm, 3);  // 8 = 1<<3
}

TEST(Gvn, NoStrengthReductionForNonPowers)
{
    BlockFixture f;
    Vreg x = f.fn.newVreg();
    Vreg y = f.builder.mul(IRBuilder::r(x), IRBuilder::imm(6));
    f.builder.ret(IRBuilder::r(y));
    gvn(f.bb());
    EXPECT_EQ(countOp(f.bb(), Opcode::Mul), 1u);
}

TEST(DominatorGvn, HoistsRedundancyFromDominatedBlocks)
{
    // entry computes x+y into a single-assignment temp; both arms of a
    // diamond recompute it; the dominator walk rewrites both.
    Function fn;
    IRBuilder b(fn);
    BlockId entry = b.makeBlock();
    BlockId then_b = b.makeBlock();
    BlockId else_b = b.makeBlock();
    fn.setEntry(entry);
    Vreg x = fn.newVreg(), y = fn.newVreg();
    fn.argRegs = {x, y};
    b.setBlock(entry);
    Vreg base = b.add(IRBuilder::r(x), IRBuilder::r(y));
    Vreg c = b.binary(Opcode::Tgt, IRBuilder::r(base), IRBuilder::imm(0));
    b.brCond(c, then_b, else_b);
    b.setBlock(then_b);
    Vreg t = b.add(IRBuilder::r(x), IRBuilder::r(y)); // redundant
    b.ret(IRBuilder::r(t));
    b.setBlock(else_b);
    Vreg e = b.add(IRBuilder::r(y), IRBuilder::r(x)); // commuted copy
    b.ret(IRBuilder::r(e));

    std::vector<BlockId> changed;
    EXPECT_EQ(valueNumberFunctionDominator(fn, changed), 2u);
    std::sort(changed.begin(), changed.end());
    EXPECT_EQ(changed, (std::vector<BlockId>{then_b, else_b}));
    EXPECT_EQ(fn.block(then_b)->insts[0].op, Opcode::Mov);
    EXPECT_EQ(fn.block(then_b)->insts[0].srcs[0].reg, base);
    EXPECT_EQ(fn.block(else_b)->insts[0].op, Opcode::Mov);
}

TEST(DominatorGvn, SiblingsDoNotShare)
{
    // The two arms of a diamond do not dominate each other: an
    // expression first seen in one arm must not rewrite the other.
    Function fn;
    IRBuilder b(fn);
    BlockId entry = b.makeBlock();
    BlockId then_b = b.makeBlock();
    BlockId else_b = b.makeBlock();
    fn.setEntry(entry);
    Vreg x = fn.newVreg(), y = fn.newVreg();
    fn.argRegs = {x, y};
    b.setBlock(entry);
    Vreg c = b.binary(Opcode::Tgt, IRBuilder::r(x), IRBuilder::imm(0));
    b.brCond(c, then_b, else_b);
    b.setBlock(then_b);
    Vreg t = b.mul(IRBuilder::r(x), IRBuilder::r(y));
    b.ret(IRBuilder::r(t));
    b.setBlock(else_b);
    Vreg e = b.mul(IRBuilder::r(x), IRBuilder::r(y));
    b.ret(IRBuilder::r(e));

    std::vector<BlockId> changed;
    EXPECT_EQ(valueNumberFunctionDominator(fn, changed), 0u);
    EXPECT_TRUE(changed.empty());
}

TEST(DominatorGvn, SkipsMultiplyAssignedRegisters)
{
    // A register written twice (a loop variable) is not path
    // independent; expressions over it must not be shared across
    // blocks.
    Function fn;
    IRBuilder b(fn);
    BlockId entry = b.makeBlock();
    BlockId body = b.makeBlock();
    fn.setEntry(entry);
    Vreg i = fn.newVreg();
    b.setBlock(entry);
    b.movTo(i, IRBuilder::imm(0));
    Vreg first = b.add(IRBuilder::r(i), IRBuilder::imm(1));
    b.movTo(i, IRBuilder::r(first));
    b.br(body);
    b.setBlock(body);
    Vreg again = b.add(IRBuilder::r(i), IRBuilder::imm(1));
    b.movTo(i, IRBuilder::r(again));
    Vreg t = b.binary(Opcode::Tlt, IRBuilder::r(i), IRBuilder::imm(5));
    b.brCond(t, body, entry == 0 ? 2u : 0u); // exit to a real block
    fn.block(body)->insts.back().target = body; // keep CFG valid
    // Simplify: replace the conditional pair with a single ret.
    fn.block(body)->insts.pop_back();
    fn.block(body)->insts.pop_back();
    b.setBlock(body);
    b.ret(IRBuilder::r(i));

    std::vector<BlockId> changed;
    EXPECT_EQ(valueNumberFunctionDominator(fn, changed), 0u);
    EXPECT_TRUE(changed.empty());
}

// ----- optimizeBlock: the per-trial pipeline -----

TEST(OptimizeBlock, RemovesRedundanciesToAFixpoint)
{
    // A store-anchored body with no redundancy, followed by code that
    // recomputes one of its values, forwards it through a copy and an
    // `add 0`, and defines a dead product: the shape a combine leaves
    // when a successor repeats the hyperblock's work.
    BlockFixture f;
    Vreg x = f.fn.newVreg();
    Vreg y = f.fn.newVreg();
    Vreg a = f.builder.add(IRBuilder::r(x), IRBuilder::r(y));
    f.builder.store(IRBuilder::imm(0), IRBuilder::imm(0),
                    IRBuilder::r(a));
    Vreg b = f.builder.mul(IRBuilder::r(x), IRBuilder::imm(3));
    f.builder.store(IRBuilder::imm(0), IRBuilder::imm(1),
                    IRBuilder::r(b));
    Vreg c = f.builder.add(IRBuilder::r(x), IRBuilder::r(y));
    Vreg d = f.fn.newVreg();
    f.builder.movTo(d, IRBuilder::r(c));
    Vreg e = f.builder.add(IRBuilder::r(d), IRBuilder::imm(0));
    f.builder.store(IRBuilder::imm(0), IRBuilder::imm(2),
                    IRBuilder::r(e));
    f.builder.mul(IRBuilder::r(y), IRBuilder::imm(7));
    f.builder.ret();

    BitVector live_out(f.fn.numVregs());
    OptPassStats stats;
    EXPECT_GT(optimize(f.bb(), live_out, &stats), 0u);

    // The repeated add folds into the first; the dead multiply goes,
    // the stored one stays; no copy survives.
    EXPECT_EQ(countOp(f.bb(), Opcode::Add), 1u);
    EXPECT_EQ(countOp(f.bb(), Opcode::Mul), 1u);
    EXPECT_EQ(countOp(f.bb(), Opcode::Mov), 0u);
    EXPECT_EQ(countOp(f.bb(), Opcode::Store), 3u);

    // The result is a fixpoint: a second run changes nothing.
    std::string once = toString(f.fn);
    EXPECT_EQ(optimize(f.bb(), live_out), 0u);
    EXPECT_EQ(toString(f.fn), once);
}

} // namespace
} // namespace chf
