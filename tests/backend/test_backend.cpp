/**
 * @file
 * Backend tests: register allocation (including forced spilling and
 * the reverse-if-conversion path), fanout insertion, and the spatial
 * scheduler.
 */

#include <gtest/gtest.h>

#include "backend/fanout.h"
#include "backend/regalloc.h"
#include "backend/scheduler.h"
#include "hyperblock/phase_ordering.h"
#include "ir/builder.h"
#include "ir/verifier.h"
#include "pipeline/session.h"
#include "sim/functional_sim.h"

namespace chf {
namespace {

// ----- Register allocation -----

TEST(RegAlloc, NoSpillsWhenPressureLow)
{
    Program p = Session::frontend(
        "int main() { int a = 1; int b = 2; int c = a + b;\n"
        "  for (int i = 0; i < 10; i += 1) { c += i; }\n"
        "  return c; }");
    prepareProgram(p);
    auto before = runFunctional(p);

    RegAllocResult result = allocateRegisters(p);
    EXPECT_EQ(result.spilledValues, 0u);
    EXPECT_GT(result.crossBlockValues, 0u);
    EXPECT_EQ(runFunctional(p).returnValue, before.returnValue);
}

TEST(RegAlloc, SpillsUnderPressureAndPreservesSemantics)
{
    // 40 live accumulators across a loop, with only 16 registers.
    std::string src = "int main() {\n";
    for (int i = 0; i < 40; ++i) {
        src += "  int a" + std::to_string(i) + " = " +
               std::to_string(i) + ";\n";
    }
    src += "  for (int i = 0; i < 13; i += 1) {\n";
    for (int i = 0; i < 40; ++i) {
        src += "    a" + std::to_string(i) + " += " +
               std::to_string(i % 7) + ";\n";
    }
    src += "  }\n  int s = 0;\n";
    for (int i = 0; i < 40; ++i)
        src += "  s += a" + std::to_string(i) + ";\n";
    src += "  return s;\n}\n";

    Program p = Session::frontend(src);
    prepareProgram(p);
    auto before = runFunctional(p);

    RegAllocOptions options;
    options.numPhysRegs = 16;
    RegAllocResult result = allocateRegisters(p, options);
    EXPECT_GT(result.spilledValues, 0u);
    EXPECT_GT(result.spillInstsInserted, 0u);
    EXPECT_TRUE(p.memory.hasRegion("spill"));
    EXPECT_TRUE(verify(p.fn).empty());

    auto after = runFunctional(p);
    EXPECT_EQ(after.returnValue, before.returnValue);
}

TEST(RegAlloc, HotValuesGetRegistersFirst)
{
    Program p = Session::frontend(
        "int main() {\n"
        "  int hot = 0; int cold = 5;\n"
        "  for (int i = 0; i < 1000; i += 1) { hot += i; }\n"
        "  return hot + cold;\n"
        "}\n");
    ProfileData profile = prepareProgram(p);
    (void)profile;

    RegAllocOptions options;
    options.numPhysRegs = 2;
    RegAllocResult result = allocateRegisters(p, options);
    // Whatever spilled, the program still works.
    EXPECT_EQ(runFunctional(p).returnValue, 499500 + 5);
    (void)result;
}

// ----- Fanout insertion -----

TEST(Fanout, InsertsMovesForWideConsumers)
{
    Function fn;
    IRBuilder b(fn);
    BlockId id = b.makeBlock();
    fn.setEntry(id);
    b.setBlock(id);
    Vreg v = b.constant(9);
    Vreg s1 = b.add(IRBuilder::r(v), IRBuilder::r(v));
    Vreg s2 = b.add(IRBuilder::r(v), IRBuilder::r(s1));
    Vreg s3 = b.add(IRBuilder::r(v), IRBuilder::r(s2));
    Vreg s4 = b.add(IRBuilder::r(v), IRBuilder::r(s3));
    b.ret(IRBuilder::r(s4));

    Program p;
    p.fn = fn.clone();
    auto before = runFunctional(p).returnValue;

    size_t moves = insertFanout(fn, *fn.block(id));
    EXPECT_GT(moves, 0u);

    // No register now feeds more than two operand slots.
    std::map<Vreg, int> counts;
    for (const auto &inst : fn.block(id)->insts)
        inst.forEachUse([&](Vreg r) { counts[r]++; });
    for (const auto &[reg, count] : counts)
        EXPECT_LE(count, 2) << "v" << reg;

    Program q;
    q.fn = std::move(fn);
    EXPECT_EQ(runFunctional(q).returnValue, before);
}

TEST(Fanout, RewiresPredicateReads)
{
    Function fn;
    IRBuilder b(fn);
    BlockId id = b.makeBlock();
    fn.setEntry(id);
    b.setBlock(id);
    Vreg p = b.constant(1);
    // Five predicated consumers of p.
    for (int i = 0; i < 5; ++i) {
        Instruction inst = Instruction::unary(
            Opcode::Mov, fn.newVreg(), Operand::makeImm(i));
        inst.pred = Predicate::onReg(p, true);
        b.emit(inst);
    }
    b.ret(IRBuilder::imm(0));

    insertFanout(fn, *fn.block(id));
    std::map<Vreg, int> counts;
    for (const auto &inst : fn.block(id)->insts)
        inst.forEachUse([&](Vreg r) { counts[r]++; });
    for (const auto &[reg, count] : counts)
        EXPECT_LE(count, 2);
}

TEST(Fanout, LeavesNarrowBlocksAlone)
{
    Function fn;
    IRBuilder b(fn);
    BlockId id = b.makeBlock();
    fn.setEntry(id);
    b.setBlock(id);
    Vreg v = b.constant(1);
    Vreg w = b.add(IRBuilder::r(v), IRBuilder::imm(2));
    b.ret(IRBuilder::r(w));
    EXPECT_EQ(insertFanout(fn, *fn.block(id)), 0u);
}

// ----- Scheduler -----

TEST(Scheduler, TileDistanceIsManhattan)
{
    SchedulerOptions options; // 4x4
    EXPECT_EQ(tileDistance(0, 0, options), 0);
    EXPECT_EQ(tileDistance(0, 3, options), 3);  // same row
    EXPECT_EQ(tileDistance(0, 12, options), 3); // same column
    EXPECT_EQ(tileDistance(0, 15, options), 6); // opposite corner
    EXPECT_EQ(tileDistance(5, 6, options), 1);
}

TEST(Scheduler, RespectsTileCapacity)
{
    Function fn;
    IRBuilder b(fn);
    BlockId id = b.makeBlock();
    fn.setEntry(id);
    b.setBlock(id);
    // 127 independent constants + ret: must spread over tiles.
    for (int i = 0; i < 127; ++i)
        b.constant(i);
    b.ret(IRBuilder::imm(0));

    SchedulerOptions options;
    Placement placement = scheduleBlock(*fn.block(id), options);
    std::vector<int> used(options.numTiles(), 0);
    for (int tile : placement) {
        ASSERT_GE(tile, 0);
        ASSERT_LT(tile, options.numTiles());
        used[tile]++;
    }
    for (int count : used)
        EXPECT_LE(count, static_cast<int>(options.slotsPerTile));
}

TEST(Scheduler, KeepsDependenceChainsClose)
{
    Function fn;
    IRBuilder b(fn);
    BlockId id = b.makeBlock();
    fn.setEntry(id);
    b.setBlock(id);
    Vreg v = b.constant(1);
    for (int i = 0; i < 6; ++i)
        v = b.add(IRBuilder::r(v), IRBuilder::imm(1));
    b.ret(IRBuilder::r(v));

    SchedulerOptions options;
    Placement placement = scheduleBlock(*fn.block(id), options);
    // A pure dependence chain should stay on one tile (next-cycle
    // issue beats a network hop).
    for (size_t i = 2; i < placement.size() - 1; ++i)
        EXPECT_EQ(placement[i], placement[1]);
}

TEST(Scheduler, PlacementSizeMatchesBlock)
{
    Program p = Session::frontend("int main() { return 42; }");
    auto placements = scheduleFunction(p.fn);
    for (BlockId id : p.fn.blockIds())
        EXPECT_EQ(placements[id].size(), p.fn.block(id)->size());
}

} // namespace
} // namespace chf
