/**
 * @file
 * Simulator tests: memory image, next-block predictor, and the timing
 * model's first-order behaviours (block overhead, misprediction cost,
 * early completion, agreement with the functional simulator).
 */

#include <gtest/gtest.h>

#include "hyperblock/phase_ordering.h"
#include "ir/builder.h"
#include "pipeline/session.h"
#include "sim/functional_sim.h"
#include "sim/memory.h"
#include "sim/predictor.h"
#include "sim/timing_sim.h"

namespace chf {
namespace {

// ----- MemoryImage -----

TEST(Memory, AllocateAndAccess)
{
    MemoryImage mem;
    int64_t a = mem.allocate("a", 4);
    int64_t b = mem.allocate("b", 2);
    EXPECT_EQ(a, 0);
    EXPECT_EQ(b, 4);
    EXPECT_EQ(mem.allocatedWords(), 6);
    mem.writeIn("b", 1, 99);
    EXPECT_EQ(mem.readIn("b", 1), 99);
    EXPECT_EQ(mem.read(5), 99);
    EXPECT_TRUE(mem.hasRegion("a"));
    EXPECT_FALSE(mem.hasRegion("c"));
}

TEST(Memory, OutOfImageReadsReturnZero)
{
    MemoryImage mem;
    mem.allocate("a", 2);
    EXPECT_EQ(mem.read(-5), 0);       // speculative wild read
    EXPECT_EQ(mem.read(1 << 20), 0);  // beyond the image
}

TEST(Memory, FillRegionZeroExtends)
{
    MemoryImage mem;
    mem.allocate("a", 4);
    mem.fillRegion("a", {7, 8});
    EXPECT_EQ(mem.readIn("a", 0), 7);
    EXPECT_EQ(mem.readIn("a", 1), 8);
    EXPECT_EQ(mem.readIn("a", 2), 0);
}

TEST(Memory, HashTracksContent)
{
    MemoryImage a, b;
    a.allocate("x", 4);
    b.allocate("x", 4);
    EXPECT_EQ(a.hash(), b.hash());
    a.writeIn("x", 2, 5);
    EXPECT_NE(a.hash(), b.hash());
}

// ----- Predictor -----

TEST(Predictor, LearnsStableTarget)
{
    // gshare folds a global history into the index, so a stable
    // pattern needs enough updates for the history to reach its fixed
    // point before predictions hit trained entries.
    NextBlockPredictor pred(8);
    for (int i = 0; i < 64; ++i)
        pred.update(1, 2);
    EXPECT_EQ(pred.predict(1), 2u);
}

TEST(Predictor, ColdIsUnknown)
{
    NextBlockPredictor pred(8);
    EXPECT_EQ(pred.predict(42), kNoBlock);
}

TEST(Predictor, RecoversAfterDeviation)
{
    NextBlockPredictor pred(8);
    for (int i = 0; i < 64; ++i)
        pred.update(1, 2);
    pred.update(1, 3); // single deviation perturbs the history
    int correct = 0;
    for (int i = 0; i < 40; ++i) {
        if (pred.predict(1) == 2u)
            ++correct;
        pred.update(1, 2);
    }
    EXPECT_GT(correct, 30); // back on track quickly
}

TEST(Predictor, LearnsAlternatingWithHistory)
{
    // A -> B -> A -> C -> A -> B ... : with history, the A entry is
    // disambiguated and accuracy approaches 100% after warmup.
    NextBlockPredictor pred(10);
    int correct = 0, total = 0;
    BlockId seq[] = {1, 2, 1, 3};
    BlockId prev = 1;
    for (int i = 1; i < 400; ++i) {
        BlockId cur = seq[i % 4];
        BlockId guess = pred.predict(prev);
        if (i > 100) {
            ++total;
            if (guess == cur)
                ++correct;
        }
        pred.update(prev, cur);
        prev = cur;
    }
    EXPECT_GT(static_cast<double>(correct) / total, 0.95);
}

// ----- Timing simulator -----

TEST(TimingSim, AgreesWithFunctionalSemantics)
{
    Program p = Session::frontend(
        "int out[4];\n"
        "int main(int n) {\n"
        "  int s = 0;\n"
        "  for (int i = 0; i < n; i += 1) { s += i * i; }\n"
        "  out[0] = s;\n"
        "  return s;\n"
        "}\n");
    FuncSimResult func = runFunctional(p, {20});
    TimingResult timing = runTiming(p, TimingConfig{}, {20});
    EXPECT_EQ(timing.returnValue, func.returnValue);
    EXPECT_EQ(timing.memoryHash, func.memoryHash);
    EXPECT_EQ(timing.blocksExecuted, func.blocksExecuted);
    EXPECT_EQ(timing.instsExecuted, func.instsExecuted);
    EXPECT_GT(timing.cycles, 0u);
}

TEST(TimingSim, MoreWorkTakesMoreCycles)
{
    Program p = Session::frontend(
        "int main(int n) {\n"
        "  int s = 0;\n"
        "  for (int i = 0; i < n; i += 1) { s += i; }\n"
        "  return s;\n"
        "}\n");
    TimingResult small = runTiming(p, TimingConfig{}, {10});
    TimingResult large = runTiming(p, TimingConfig{}, {100});
    EXPECT_GT(large.cycles, small.cycles);
}

TEST(TimingSim, BlockOverheadScalesWithDispatchInterval)
{
    Program p = Session::frontend(
        "int main() {\n"
        "  int s = 0;\n"
        "  for (int i = 0; i < 200; i += 1) { s += i; }\n"
        "  return s;\n"
        "}\n");
    TimingConfig cheap;
    cheap.blockDispatchInterval = 1;
    TimingConfig expensive;
    expensive.blockDispatchInterval = 16;
    EXPECT_GT(runTiming(p, expensive).cycles,
              runTiming(p, cheap).cycles);
}

TEST(TimingSim, MispredictionPenaltyCosts)
{
    // A data-dependent unpredictable branch pattern.
    Program p = Session::frontend(
        "int d[256];\n"
        "int main() {\n"
        "  int seed = 3; int s = 0;\n"
        "  for (int i = 0; i < 256; i += 1) {\n"
        "    seed = (seed * 1103515245 + 12345) % 65536;\n"
        "    d[i] = seed % 2;\n"
        "  }\n"
        "  for (int i = 0; i < 256; i += 1) {\n"
        "    if (d[i]) { s += i; } else { s -= i; }\n"
        "  }\n"
        "  return s;\n"
        "}\n");
    TimingConfig harsh;
    harsh.mispredictPenalty = 40;
    TimingConfig mild;
    mild.mispredictPenalty = 0;
    TimingResult h = runTiming(p, harsh);
    TimingResult m = runTiming(p, mild);
    EXPECT_GT(h.branchMispredicts, 50u); // genuinely unpredictable
    EXPECT_GT(h.cycles, m.cycles);
}

TEST(TimingSim, EarlyCompletionIgnoresDeadChains)
{
    // Two versions of one block: with and without a long dependence
    // chain whose result is dead. Commit must not wait for dead work.
    auto build = [](bool with_dead_chain) {
        Function fn;
        IRBuilder b(fn);
        BlockId id = b.makeBlock();
        fn.setEntry(id);
        b.setBlock(id);
        Vreg x = b.constant(3);
        if (with_dead_chain) {
            Vreg d = b.constant(100);
            for (int i = 0; i < 6; ++i) {
                d = b.binary(Opcode::Div, IRBuilder::r(d),
                             IRBuilder::imm(1)); // 24 cycles each
            }
        }
        Vreg y = b.add(IRBuilder::r(x), IRBuilder::imm(1));
        b.ret(IRBuilder::r(y));
        Program p;
        p.fn = std::move(fn);
        return p;
    };
    Program lean = build(false);
    Program heavy = build(true);
    uint64_t lean_cycles = runTiming(lean).cycles;
    uint64_t heavy_cycles = runTiming(heavy).cycles;
    // The dead divide chain (~144 cycles) must not gate commit; only
    // fetch-slot effects may differ slightly.
    EXPECT_LT(heavy_cycles, lean_cycles + 20);
}

TEST(TimingSim, PredicationDelaysGuardedOutputs)
{
    // An output guarded by a slow test commits later than one guarded
    // by a fast test.
    auto build = [](bool slow_condition) {
        Function fn;
        IRBuilder b(fn);
        BlockId id = b.makeBlock();
        BlockId next = b.makeBlock();
        fn.setEntry(id);
        b.setBlock(id);
        Vreg c = b.constant(17);
        if (slow_condition) {
            for (int i = 0; i < 4; ++i) {
                c = b.binary(Opcode::Div, IRBuilder::r(c),
                             IRBuilder::imm(1));
            }
        }
        Vreg t = b.binary(Opcode::Tgt, IRBuilder::r(c),
                          IRBuilder::imm(0));
        Vreg out = fn.newVreg();
        Instruction guarded = Instruction::unary(Opcode::Mov, out,
                                                 Operand::makeImm(5));
        guarded.pred = Predicate::onReg(t, true);
        b.emit(guarded);
        b.br(next);
        b.setBlock(next);
        b.ret(IRBuilder::r(out));
        Program p;
        p.fn = std::move(fn);
        return p;
    };
    EXPECT_GT(runTiming(build(true)).cycles,
              runTiming(build(false)).cycles);
}

TEST(TimingSim, WindowLimitsOverlap)
{
    Program p = Session::frontend(
        "int main() {\n"
        "  int s = 0;\n"
        "  for (int i = 0; i < 300; i += 1) { s += i % 3; }\n"
        "  return s;\n"
        "}\n");
    TimingConfig narrow;
    narrow.maxInFlightBlocks = 1;
    TimingConfig wide;
    wide.maxInFlightBlocks = 8;
    EXPECT_GE(runTiming(p, narrow).cycles, runTiming(p, wide).cycles);
}

} // namespace
} // namespace chf

namespace chf {
namespace {

TEST(TimingSim, NetworkContentionCosts)
{
    // A value consumed by many instructions on other tiles: with
    // injection contention modeled, the sends serialize.
    Program p = Session::frontend(
        "int d[128];\n"
        "int main() {\n"
        "  int s = 0;\n"
        "  for (int i = 0; i < 128; i += 1) {\n"
        "    s += d[i] * i + d[(i * 7) % 128] - i;\n"
        "  }\n"
        "  return s;\n"
        "}\n");
    ProfileData profile = prepareProgram(p);
    Session session;
    session.addProgramRef(p, profile);
    session.compile();

    TimingConfig plain;
    TimingConfig contended;
    contended.modelNetworkContention = true;
    TimingResult fast = runTiming(p, plain);
    TimingResult slow = runTiming(p, contended);
    EXPECT_GE(slow.cycles, fast.cycles);
    EXPECT_EQ(slow.returnValue, fast.returnValue);
}

} // namespace
} // namespace chf
