/**
 * @file
 * IR layer tests: opcode traits, instructions, blocks, functions, the
 * builder, the printer, and the verifier.
 */

#include <gtest/gtest.h>

#include <limits>

#include "ir/builder.h"
#include "ir/printer.h"
#include "ir/verifier.h"

namespace chf {
namespace {

// ----- Opcode traits -----

TEST(Opcode, Traits)
{
    // Every property of every opcode, in enum order, written out apart
    // from kOpcodeTable so that a wrong cell of the table fails here.
    struct Row
    {
        Opcode op;
        const char *name;
        int srcs;
        bool dest, branch, test, memory, pure;
        int latency;
        bool commutative;
    };
    using enum Opcode;
    const Row rows[] = {
        {Mov,   "mov",   1, true,  false, false, false, true,  1,  false},
        {Add,   "add",   2, true,  false, false, false, true,  1,  true},
        {Sub,   "sub",   2, true,  false, false, false, true,  1,  false},
        {Mul,   "mul",   2, true,  false, false, false, true,  3,  true},
        {Div,   "div",   2, true,  false, false, false, true,  24, false},
        {Mod,   "mod",   2, true,  false, false, false, true,  24, false},
        {Neg,   "neg",   1, true,  false, false, false, true,  1,  false},
        {And,   "and",   2, true,  false, false, false, true,  1,  true},
        {Or,    "or",    2, true,  false, false, false, true,  1,  true},
        {Xor,   "xor",   2, true,  false, false, false, true,  1,  true},
        {Not,   "not",   1, true,  false, false, false, true,  1,  false},
        {Shl,   "shl",   2, true,  false, false, false, true,  1,  false},
        {Shr,   "shr",   2, true,  false, false, false, true,  1,  false},
        {Band,  "band",  2, true,  false, false, false, true,  1,  true},
        {Bandc, "bandc", 2, true,  false, false, false, true,  1,  false},
        {Teq,   "teq",   2, true,  false, true,  false, true,  1,  true},
        {Tne,   "tne",   2, true,  false, true,  false, true,  1,  true},
        {Tlt,   "tlt",   2, true,  false, true,  false, true,  1,  false},
        {Tle,   "tle",   2, true,  false, true,  false, true,  1,  false},
        {Tgt,   "tgt",   2, true,  false, true,  false, true,  1,  false},
        {Tge,   "tge",   2, true,  false, true,  false, true,  1,  false},
        {Load,  "load",  2, true,  false, false, true,  false, 3,  false},
        {Store, "store", 3, false, false, false, true,  false, 1,  false},
        {Br,    "br",    0, false, true,  false, false, false, 1,  false},
        {Ret,   "ret",   1, false, true,  false, false, false, 1,  false},
    };
    ASSERT_EQ(std::size(rows), static_cast<size_t>(kNumOpcodes));
    for (size_t i = 0; i < std::size(rows); ++i) {
        const Row &row = rows[i];
        SCOPED_TRACE(row.name);
        EXPECT_EQ(static_cast<size_t>(row.op), i);
        EXPECT_STREQ(opcodeName(row.op), row.name);
        EXPECT_EQ(opcodeNumSrcs(row.op), row.srcs);
        EXPECT_EQ(opcodeHasDest(row.op), row.dest);
        EXPECT_EQ(opcodeIsBranch(row.op), row.branch);
        EXPECT_EQ(opcodeIsTest(row.op), row.test);
        EXPECT_EQ(opcodeIsMemory(row.op), row.memory);
        EXPECT_EQ(opcodeIsPure(row.op), row.pure);
        EXPECT_EQ(opcodeLatency(row.op), row.latency);
        EXPECT_EQ(opcodeIsCommutative(row.op), row.commutative);
    }
}

TEST(Opcode, EvalSemantics)
{
    EXPECT_EQ(evalOpcode(Opcode::Add, 2, 3), 5);
    EXPECT_EQ(evalOpcode(Opcode::Div, 7, 0), 0);  // defined
    EXPECT_EQ(evalOpcode(Opcode::Mod, 7, 0), 0);
    EXPECT_EQ(evalOpcode(Opcode::Shr, -8, 1), -4); // arithmetic
    EXPECT_EQ(evalOpcode(Opcode::Band, 5, 3), 1);
    EXPECT_EQ(evalOpcode(Opcode::Band, 5, 0), 0);
    EXPECT_EQ(evalOpcode(Opcode::Bandc, 5, 0), 1);
    EXPECT_EQ(evalOpcode(Opcode::Bandc, 5, 2), 0);
    EXPECT_EQ(evalOpcode(Opcode::Tlt, -1, 0), 1);
}

TEST(Opcode, EvalWrapsOnOverflow)
{
    // Two's-complement wrapping: no edge value traps or is undefined.
    const int64_t min = std::numeric_limits<int64_t>::min();
    const int64_t max = std::numeric_limits<int64_t>::max();
    EXPECT_EQ(evalOpcode(Opcode::Div, min, -1), min); // wrapping negate
    EXPECT_EQ(evalOpcode(Opcode::Mod, min, -1), 0);
    EXPECT_EQ(evalOpcode(Opcode::Div, 7, -1), -7);
    EXPECT_EQ(evalOpcode(Opcode::Mod, 7, -1), 0);
    EXPECT_EQ(evalOpcode(Opcode::Div, min, 1), min);
    EXPECT_EQ(evalOpcode(Opcode::Mod, min, 0), 0);
    EXPECT_EQ(evalOpcode(Opcode::Div, -7, 2), -3); // truncates to zero
    EXPECT_EQ(evalOpcode(Opcode::Mod, -7, 2), -1);
    EXPECT_EQ(evalOpcode(Opcode::Add, max, 1), min);
    EXPECT_EQ(evalOpcode(Opcode::Sub, min, 1), max);
    EXPECT_EQ(evalOpcode(Opcode::Mul, min, -1), min);
    EXPECT_EQ(evalOpcode(Opcode::Mul, max, 2), -2);
    EXPECT_EQ(evalOpcode(Opcode::Neg, min, 0), min);
    EXPECT_EQ(evalOpcode(Opcode::Shl, -1, 63), min);
    EXPECT_EQ(evalOpcode(Opcode::Shr, min, 63), -1);
}

// ----- Instructions -----

TEST(Instruction, UsesIncludePredicate)
{
    Instruction inst = Instruction::binary(
        Opcode::Add, 5, Operand::makeReg(1), Operand::makeImm(3));
    inst.pred = Predicate::onReg(9, false);
    std::vector<Vreg> uses;
    inst.forEachUse([&](Vreg v) { uses.push_back(v); });
    EXPECT_EQ(uses, (std::vector<Vreg>{1, 9}));
}

TEST(Instruction, SameAsIgnoresFrequency)
{
    Instruction a = Instruction::br(3, Predicate::onReg(1, true), 10.0);
    Instruction b = Instruction::br(3, Predicate::onReg(1, true), 99.0);
    EXPECT_TRUE(a.sameAs(b));
    b.target = 4;
    EXPECT_FALSE(a.sameAs(b));
}

// ----- Blocks and function structure -----

TEST(Function, BlocksAndVregs)
{
    Function fn;
    BasicBlock *a = fn.newBlock("a");
    BasicBlock *b = fn.newBlock();
    EXPECT_EQ(a->id(), 0u);
    EXPECT_EQ(b->id(), 1u);
    EXPECT_EQ(b->name(), "bb1");
    EXPECT_EQ(fn.newVreg(), 0u);
    EXPECT_EQ(fn.newVreg(), 1u);
    EXPECT_EQ(fn.numVregs(), 2u);
    EXPECT_EQ(fn.numBlocks(), 2u);
}

Function
makeDiamond()
{
    // entry -> (then | else) -> join -> ret
    Function fn;
    IRBuilder b(fn);
    BlockId entry = b.makeBlock("entry");
    BlockId then_b = b.makeBlock("then");
    BlockId else_b = b.makeBlock("else");
    BlockId join = b.makeBlock("join");
    fn.setEntry(entry);

    b.setBlock(entry);
    Vreg c = b.constant(1);
    b.brCond(c, then_b, else_b);
    b.setBlock(then_b);
    b.br(join);
    b.setBlock(else_b);
    b.br(join);
    b.setBlock(join);
    b.ret(IRBuilder::imm(0));
    return fn;
}

TEST(Function, SuccessorsAndPredecessors)
{
    Function fn = makeDiamond();
    EXPECT_EQ(fn.block(0)->successors(),
              (std::vector<BlockId>{1, 2}));
    PredecessorMap preds = fn.predecessors();
    EXPECT_EQ(preds[3], (std::vector<BlockId>{1, 2}));
    EXPECT_TRUE(preds[0].empty());
}

TEST(Function, ReversePostOrderStartsAtEntry)
{
    Function fn = makeDiamond();
    auto rpo = fn.reversePostOrder();
    ASSERT_EQ(rpo.size(), 4u);
    EXPECT_EQ(rpo.front(), fn.entry());
    EXPECT_EQ(rpo.back(), 3u); // the join is visited last
}

TEST(Function, RemoveUnreachable)
{
    Function fn = makeDiamond();
    // The id, not the block: removeUnreachable frees the block.
    BlockId orphan = fn.newBlock("orphan")->id();
    IRBuilder b(fn);
    b.setBlock(orphan);
    b.ret();
    EXPECT_EQ(fn.numBlocks(), 5u);
    EXPECT_EQ(fn.removeUnreachable(), 1u);
    EXPECT_EQ(fn.numBlocks(), 4u);
    EXPECT_EQ(fn.block(orphan), nullptr);
}

TEST(Function, CloneIsDeep)
{
    Function fn = makeDiamond();
    Function copy = fn.clone();
    copy.block(0)->insts.clear();
    EXPECT_FALSE(fn.block(0)->insts.empty());
    EXPECT_EQ(copy.entry(), fn.entry());
    EXPECT_EQ(copy.numVregs(), fn.numVregs());
}

TEST(BasicBlock, FrequencyAndMemOps)
{
    Function fn;
    IRBuilder b(fn);
    BlockId id = b.makeBlock();
    fn.setEntry(id);
    b.setBlock(id);
    Vreg base = b.constant(0);
    Vreg v = b.load(IRBuilder::r(base), IRBuilder::imm(0));
    b.store(IRBuilder::r(base), IRBuilder::imm(1), IRBuilder::r(v));
    b.emit(Instruction::br(id, Predicate::onReg(v, true), 10.0));
    b.emit(Instruction::ret(Operand::makeNone(),
                            Predicate::onReg(v, false), 2.0));
    EXPECT_EQ(fn.block(id)->memoryOpCount(), 2u);
    EXPECT_DOUBLE_EQ(fn.block(id)->frequency(), 12.0);
    EXPECT_TRUE(fn.block(id)->hasReturn());
}

// ----- Printer -----

TEST(Printer, InstructionFormats)
{
    Instruction add = Instruction::binary(
        Opcode::Add, 3, Operand::makeReg(1), Operand::makeImm(7));
    EXPECT_EQ(toString(add), "add v3 = v1, #7");

    Instruction br = Instruction::br(5, Predicate::onReg(2, false));
    EXPECT_EQ(toString(br), "br bb5  <!v2>");

    Instruction ret = Instruction::ret(Operand::makeReg(4));
    EXPECT_EQ(toString(ret), "ret v4");
}

// ----- Verifier -----

TEST(Verifier, AcceptsWellFormed)
{
    Function fn = makeDiamond();
    EXPECT_TRUE(verify(fn).empty());
}

TEST(Verifier, RejectsBranchToDeadBlock)
{
    Function fn = makeDiamond();
    fn.block(1)->insts[0].target = 99;
    EXPECT_FALSE(verify(fn).empty());
}

TEST(Verifier, RejectsMissingTerminator)
{
    Function fn = makeDiamond();
    fn.block(1)->insts.clear();
    fn.block(1)->append(Instruction::unary(Opcode::Mov, 0,
                                           Operand::makeImm(1)));
    auto problems = verify(fn);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("no branch"), std::string::npos);
}

TEST(Verifier, RejectsOutOfRangeRegister)
{
    Function fn = makeDiamond();
    fn.block(3)->insts[0].srcs[0] = Operand::makeReg(1000);
    EXPECT_FALSE(verify(fn).empty());
}

TEST(Verifier, RejectsTwoUnpredicatedBranches)
{
    Function fn = makeDiamond();
    fn.block(1)->append(Instruction::br(3));
    EXPECT_FALSE(verify(fn).empty());
}

bool
mentions(const std::vector<std::string> &problems, const char *needle)
{
    for (const std::string &p : problems) {
        if (p.find(needle) != std::string::npos)
            return true;
    }
    return false;
}

TEST(Verifier, RejectsOutOfRangePredicateRegister)
{
    Function fn = makeDiamond();
    fn.block(1)->insts[0].pred = Predicate::onReg(1000, true);
    EXPECT_TRUE(mentions(verify(fn), "out of range"));
}

TEST(Verifier, RejectsPredicateWithoutAnyDefinition)
{
    Function fn = makeDiamond();
    Vreg ghost = fn.newVreg();
    fn.block(1)->insts[0].pred = Predicate::onReg(ghost, true);
    EXPECT_TRUE(mentions(verify(fn), "no reaching definition"));
}

TEST(Verifier, RejectsPredicateDefinedOnlyLaterInSameBlock)
{
    Function fn = makeDiamond();
    Vreg p = fn.newVreg();
    Vreg q = fn.newVreg();
    Instruction use = Instruction::unary(Opcode::Mov, q,
                                         Operand::makeImm(1));
    use.pred = Predicate::onReg(p, true);
    Instruction def = Instruction::binary(
        Opcode::Teq, p, Operand::makeImm(0), Operand::makeImm(0));
    auto &insts = fn.block(3)->insts;
    insts.insert(insts.begin(), def);  // [def p, ret]
    insts.insert(insts.begin(), use);  // [use p, def p, ret]
    EXPECT_TRUE(mentions(verify(fn), "no reaching definition"));

    // With the definition moved ahead of the use it is well-formed.
    std::swap(insts[0], insts[1]);
    EXPECT_TRUE(verify(fn).empty());
}

TEST(Verifier, AcceptsPredicateLiveInFromAnotherBlock)
{
    Function fn = makeDiamond();
    // The entry defines a register (the branch condition); predicating
    // an instruction of the join on it is a cross-block live-in.
    Vreg c = fn.block(0)->insts[0].dest;
    ASSERT_NE(c, kNoVreg);
    fn.block(3)->insts[0].pred = Predicate::onReg(c, true);
    EXPECT_TRUE(verify(fn).empty());
}

TEST(Verifier, RejectsSuccessorListNamingDeadBlock)
{
    Function fn = makeDiamond();
    fn.removeBlock(3);
    auto problems = verify(fn);
    EXPECT_TRUE(mentions(problems, "branch to dead or invalid block"));
    EXPECT_TRUE(mentions(problems, "successor list names dead block"));
}

TEST(Verifier, ReportsEveryProblemKindInOrder)
{
    // One function with every problem kind verify() reports after the
    // entry check, spread over blocks so the per-block marks must reset
    // between blocks. v6 is defined only in bb0, after bb0 reads it (no
    // reaching definition there) and before bb3 reads it (a cross-block
    // live-in); v9 is defined only in the last block, bb4, and bb3's
    // read of it is a cross-block live-in too; v4 is defined in bb0 and
    // bb2, so bb0's read of it ahead of its definition reaches; v8 is
    // never defined.
    Function fn;
    for (int i = 0; i < 6; ++i)
        fn.newBlock();
    fn.setEntry(0);
    for (int i = 0; i < 10; ++i)
        fn.newVreg();
    fn.argRegs = {0, 500};
    const Operand one = Operand::makeImm(1);
    auto predicated = [&](Vreg dest, Vreg p, bool on_true) {
        Instruction inst = Instruction::unary(Opcode::Mov, dest, one);
        inst.pred = Predicate::onReg(p, on_true);
        return inst;
    };

    auto &b0 = fn.block(0)->insts;
    b0.push_back(Instruction::unary(Opcode::Mov, kNoVreg, one));
    b0.push_back(Instruction::unary(Opcode::Mov, 1000, one));
    b0.push_back(Instruction::binary(Opcode::Add, 1, Operand::makeReg(999),
                                     Operand::makeNone()));
    b0.push_back(Instruction::binary(Opcode::Mov, 2, one, one));
    b0.push_back(predicated(3, 888, true));
    b0.push_back(predicated(3, 6, true));
    b0.push_back(predicated(2, 4, true));
    b0.push_back(Instruction::binary(Opcode::Teq, 6, one, one));
    b0.push_back(Instruction::binary(Opcode::Teq, 4, one, one));
    Instruction with_target = Instruction::unary(Opcode::Mov, 5, one);
    with_target.target = 2;
    b0.push_back(with_target);
    Instruction br_dest = Instruction::br(2, Predicate::onReg(4, true));
    br_dest.dest = 7;
    b0.push_back(br_dest);
    b0.push_back(Instruction::br(3));
    b0.push_back(Instruction::br(3));

    // bb1 stays empty; bb2 ends without a branch.
    auto &b2 = fn.block(2)->insts;
    b2.push_back(predicated(1, 8, true));
    b2.push_back(Instruction::binary(Opcode::Teq, 4, one, one));

    auto &b3 = fn.block(3)->insts;
    b3.push_back(predicated(7, 6, false));
    b3.push_back(Instruction::br(kNoBlock, Predicate::onReg(4, true)));
    b3.push_back(Instruction::br(5, Predicate::onReg(4, false)));
    b3.push_back(predicated(7, 9, true));
    b3.push_back(Instruction::ret(Operand::makeReg(7)));
    fn.removeBlock(5);

    // bb4 is well-formed: no problem may name it.
    auto &b4 = fn.block(4)->insts;
    b4.push_back(Instruction::binary(Opcode::Teq, 9, one, one));
    b4.push_back(Instruction::ret());

    const std::vector<std::string> expected = {
        "arg register v500 out of range",
        "bb0[0] mov #1: missing destination",
        "bb0[1] mov v1000 = #1: dest register v1000 out of range",
        "bb0[2] add v1 = v999, _: source register v999 out of range",
        "bb0[2] add v1 = v999, _: missing source operand 1",
        "bb0[3] mov v2 = #1: unexpected source operand 1",
        "bb0[4] mov v3 = #1  <v888>: predicate register v888 out of range",
        "bb0[5] mov v3 = #1  <v6>: predicate register v6 has no reaching "
        "definition",
        "bb0[9] mov v5 = #1: non-branch carries a target",
        "bb0[10] br bb2  <v4>: unexpected destination",
        "bb0 has 2 unpredicated branches",
        "bb1 is empty",
        "bb2[0] mov v1 = #1  <v8>: predicate register v8 has no reaching "
        "definition",
        "bb2 has no branch or ret",
        "bb3[1] br bb4294967295  <v4>: branch to dead or invalid block",
        "bb3[2] br bb5  <!v4>: branch to dead or invalid block",
        "bb3 successor list does not match its terminator targets (2 "
        "successors, 1 branch targets)",
        "bb3 successor list names dead block bb4294967295",
        "bb3 successor list names dead block bb5",
    };
    EXPECT_EQ(verify(fn), expected);

    Function no_entry;
    no_entry.newBlock();
    no_entry.setEntry(kNoBlock);
    EXPECT_EQ(verify(no_entry),
              std::vector<std::string>{"function has no live entry block"});
}

} // namespace
} // namespace chf
