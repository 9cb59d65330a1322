/**
 * @file
 * Reference-differential gate for the per-block walks keyed by
 * register: the assembly writer, legality's fanout and null-write
 * prediction (analyzeBlock), the null-write pass and tile placement,
 * each held to the std::map walk it replaced (reference_asm.h and
 * reference_walks.h).
 *
 * Each unit is checked at three states: prepared (basic blocks),
 * formed (hyperblocks, before the back end) and compiled. The trial
 * blocks are every block of the prepared and formed functions plus
 * every (hb, s) successor pair combined and optimized in scratch as a
 * merge trial does; one BlockAnalysisScratch serves them all, as in
 * the merge engine. Null writes are compared on the formed function,
 * asm text and placements on the compiled one. Units: every generator
 * preset at seeds 1..30, the 24 Table 1/2 kernels under BB and (IUPO),
 * synth64, and keep-going units degraded by a corrupt-ir fault in each
 * guarded phase.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/liveness.h"
#include "backend/asm_writer.h"
#include "backend/scheduler.h"
#include "hyperblock/constraints.h"
#include "hyperblock/phase_ordering.h"
#include "ir/builder.h"
#include "pipeline/session.h"
#include "reference_asm.h"
#include "reference_walks.h"
#include "support/fault_inject.h"
#include "transform/cfg_utils.h"
#include "transform/if_convert.h"
#include "transform/normalize_outputs.h"
#include "transform/optimize.h"
#include "workloads/generator.h"
#include "workloads/workloads.h"

namespace chf {
namespace {

/** How much each comparison saw, so a test can insist it ran. */
struct Coverage
{
    size_t trialBlocks = 0;
    size_t nullWrites = 0;
    size_t placedBlocks = 0;
    size_t asmBytes = 0;
};

void
expectSameResources(const BlockResources &got, const BlockResources &want)
{
    EXPECT_EQ(got.insts, want.insts);
    EXPECT_EQ(got.fanoutMoves, want.fanoutMoves);
    EXPECT_EQ(got.nullWrites, want.nullWrites);
    EXPECT_EQ(got.memOps, want.memOps);
    EXPECT_EQ(got.branches, want.branches);
    EXPECT_EQ(got.regReads, want.regReads);
    EXPECT_EQ(got.regWrites, want.regWrites);
}

/**
 * analyzeBlock against the reference on every block of @p fn and on
 * every successor pair combined and optimized in scratch.
 */
void
checkTrialBlocks(const Function &fn, BlockAnalysisScratch &scratch,
                 Coverage &cov)
{
    const Liveness live(fn);
    BitVector live_out;
    for (BlockId id : fn.blockIds()) {
        const BasicBlock &bb = *fn.block(id);
        live.liveOutOf(bb, live_out);
        SCOPED_TRACE(testing::Message() << "block bb" << id);
        expectSameResources(analyzeBlock(bb, live_out, scratch),
                            reference::analyzeBlock(fn, bb, live_out));
        ++cov.trialBlocks;
    }

    Function work = fn.clone();
    BasicBlock block{kNoBlock, ""};
    CombineScratch combine;
    BlockOptScratch opt;
    for (BlockId hb : fn.blockIds()) {
        for (BlockId s : fn.block(hb)->successors()) {
            if (s == fn.entry())
                continue;
            const BasicBlock &hb_block = *fn.block(hb);
            block.assignFrom(hb_block);
            if (!combineBlocks(work, block, *fn.block(s),
                               entryShare(hb_block, *fn.block(s)),
                               combine)) {
                continue;
            }
            BitVector trial_out(work.numVregs());
            for (BlockId succ : block.successors())
                live.liveIn(succ).forEach([&](uint32_t v) {
                    trial_out.set(v);
                });
            optimizeBlock(block, trial_out, opt);
            SCOPED_TRACE(testing::Message() << "trial bb" << hb
                                            << " <- bb" << s);
            expectSameResources(
                analyzeBlock(block, trial_out, scratch),
                reference::analyzeBlock(work, block, trial_out));
            ++cov.trialBlocks;
        }
    }
}

/** normalizeOutputsFunction against the reference pass on @p formed. */
void
checkNullWrites(const Function &formed, Coverage &cov)
{
    Function got = formed.clone();
    Function want = formed.clone();
    size_t n = normalizeOutputsFunction(got);
    EXPECT_EQ(n, reference::normalizeOutputsFunction(want));
    for (BlockId id : formed.blockIds()) {
        const auto &g = got.block(id)->insts;
        const auto &w = want.block(id)->insts;
        ASSERT_EQ(g.size(), w.size()) << "bb" << id;
        for (size_t i = 0; i < g.size(); ++i)
            EXPECT_TRUE(g[i].sameAs(w[i])) << "bb" << id << "[" << i << "]";
    }
    cov.nullWrites += n;
}

/** scheduleFunction and the asm writer against the references. */
void
checkPlacementAndAsm(const Function &fn, Coverage &cov)
{
    std::map<BlockId, Placement> placed = scheduleFunction(fn);
    for (BlockId id : fn.blockIds()) {
        EXPECT_EQ(placed[id], reference::scheduleBlock(*fn.block(id)))
            << "bb" << id;
        ++cov.placedBlocks;
    }
    std::string text = writeFunctionAsm(fn);
    EXPECT_EQ(text, reference::writeFunctionAsm(fn));
    cov.asmBytes += text.size();
}

/**
 * Check one prepared program: its blocks and trials, then the formed
 * function (blocks, trials, null writes, placement), then the compiled
 * one (placement and asm) under @p options.
 */
void
checkUnit(const Program &prepared, const ProfileData &profile,
          const SessionOptions &options, BlockAnalysisScratch &scratch,
          Coverage &cov)
{
    checkTrialBlocks(prepared.fn, scratch, cov);

    Program formed = prepared.clone();
    {
        Session session(SessionOptions(options).withBackend(false));
        session.addProgramRef(formed, profile);
        session.compile(1);
    }
    checkTrialBlocks(formed.fn, scratch, cov);
    checkNullWrites(formed.fn, cov);
    checkPlacementAndAsm(formed.fn, cov);

    Program compiled = prepared.clone();
    Session session(options);
    session.addProgramRef(compiled, profile);
    session.compile(1);
    checkPlacementAndAsm(compiled.fn, cov);
}

TEST(WalkReference, EveryGeneratorPreset)
{
    BlockAnalysisScratch scratch;
    Coverage cov;
    for (const std::string &name : shapeNames()) {
        GeneratorShape shape;
        ASSERT_TRUE(namedShape(name, &shape));
        for (uint64_t seed = 1; seed <= 30; ++seed) {
            SCOPED_TRACE(name + " seed " + std::to_string(seed));
            Program program = buildGenerated(generateTinyC(seed, shape));
            ProfileData profile = prepareProgram(program);
            checkUnit(program, profile, SessionOptions(), scratch, cov);
        }
    }
    EXPECT_GT(cov.trialBlocks, 10000u);
    EXPECT_GT(cov.nullWrites, 0u);
    EXPECT_GT(cov.placedBlocks, 1000u);
}

TEST(WalkReference, TableKernelsAndSynth64)
{
    BlockAnalysisScratch scratch;
    Coverage cov;
    std::vector<Workload> units = microbenchmarks();
    units.push_back(synthFormationWorkload(64));
    for (const Workload &w : units) {
        Program program = buildWorkload(w);
        ProfileData profile = prepareProgram(program);
        for (Pipeline p : {Pipeline::BB, Pipeline::IUPO_fused}) {
            SCOPED_TRACE(w.name + "/" + pipelineName(p));
            checkUnit(program, profile, SessionOptions().withPipeline(p),
                      scratch, cov);
        }
    }
    EXPECT_GT(cov.nullWrites, 0u);
    EXPECT_GT(cov.asmBytes, 0u);
}

TEST(WalkReference, DegradedKeepGoingUnits)
{
    // A corrupt-ir fault in each guarded phase rolls that phase back,
    // so the back end and the writer see shapes a clean compile never
    // emits: unnormalized outputs, producers with more than two
    // targets, blocks formation left alone.
    GeneratorShape shape;
    ASSERT_TRUE(namedShape("bench", &shape));
    BlockAnalysisScratch scratch;
    Coverage cov;
    size_t degraded = 0;
    for (const char *phase : {"unroll", "peel", "formation",
                              "formation-seed", "regalloc", "fanout",
                              "schedule"}) {
        for (uint64_t seed = 1; seed <= 6; ++seed) {
            SCOPED_TRACE(std::string(phase) + " seed " +
                         std::to_string(seed));
            FaultSpec spec;
            spec.phase = phase;
            spec.kind = FaultSpec::Kind::CorruptIr;
            Program program = buildGenerated(generateTinyC(seed, shape));
            ProfileData profile = prepareProgram(program);
            Session session(SessionOptions()
                                .withKeepGoing(true)
                                .withFault(spec));
            session.addProgramRef(program, profile);
            SessionResult result = session.compile(1);
            degraded += result.functions[0].degraded();
            checkTrialBlocks(program.fn, scratch, cov);
            checkPlacementAndAsm(program.fn, cov);
        }
    }
    EXPECT_GT(degraded, 20u);
}

/** The byte-order rules, on one block that exercises each of them. */
TEST(WalkReference, HandBuiltBlockPinsByteOrder)
{
    Function fn;
    IRBuilder b(fn);
    BlockId a = b.makeBlock();
    BlockId c = b.makeBlock();
    fn.setEntry(a);
    const Vreg p = fn.newVreg(), x = fn.newVreg(), y = fn.newVreg(),
               z = fn.newVreg();
    fn.argRegs = {p, x, y, z};
    b.setBlock(a);
    // z is read before y (R[0] is $g3, R[1] is $g2), and y is read
    // again after its redefinition, from N[2].
    b.emit(Instruction::binary(Opcode::Add, x, Operand::makeReg(z),
                               Operand::makeReg(y)));
    b.emit(Instruction::binary(Opcode::Tlt, p, Operand::makeReg(y),
                               Operand::makeImm(-7)));
    b.emit(Instruction::unary(Opcode::Mov, y, Operand::makeImm(4)));
    // z's final producer precedes x's, so W[0] is $g3 and W[1] $g1.
    Instruction pz = Instruction::binary(Opcode::Mul, z, Operand::makeReg(y),
                                         Operand::makeReg(y));
    pz.pred = Predicate::onReg(p, true);
    b.emit(pz);
    b.emit(Instruction::binary(Opcode::Sub, x, Operand::makeReg(x),
                               Operand::makeReg(y)));
    b.emit(Instruction::br(c, Predicate::onReg(p, false)));
    b.emit(Instruction::br(c, Predicate::onReg(p, true)));
    b.setBlock(c);
    b.emit(Instruction::binary(Opcode::Add, x, Operand::makeReg(x),
                               Operand::makeReg(z)));
    b.ret(IRBuilder::r(x));

    std::string text = writeFunctionAsm(fn);
    EXPECT_EQ(text, reference::writeFunctionAsm(fn));
    EXPECT_EQ(text.substr(0, text.find(".bend\n") + 6),
              "; main: 2 blocks, 9 instructions\n"
              ".bbegin main$bb0\n"
              "  R[1]  read  $g2 > N[0,op1] N[1,op0]\n"
              "  R[0]  read  $g3 > N[0,op0]\n"
              "  N[0]  add > N[4,op0]\n"
              "  N[1]  tlti #-7 > N[3,pred] N[5,pred] N[6,pred]\n"
              "  N[2]  movi #4 > N[3,op0] N[3,op1] N[4,op1]\n"
              "  N[3]  mul > W[0]\n"
              "  N[4]  sub > W[1]\n"
              "  N[5]  bro_f main$bb1\n"
              "  N[6]  bro_t main$bb1\n"
              "  W[1]  write $g1\n"
              "  W[0]  write $g3\n"
              ".bend\n");

    // z has one predicated writer: one null write, guarded on !p. y's
    // unpredicated writer needs none.
    Function normalized = fn.clone();
    EXPECT_EQ(normalizeOutputsFunction(normalized), 1u);
    const Instruction &null_write = normalized.block(a)->insts.back();
    EXPECT_EQ(null_write.dest, z);
    EXPECT_EQ(null_write.pred, Predicate::onReg(p, false));

    BlockAnalysisScratch scratch;
    BitVector live_out;
    Liveness(fn).liveOutOf(*fn.block(a), live_out);
    BlockResources res = analyzeBlock(*fn.block(a), live_out, scratch);
    expectSameResources(res, reference::analyzeBlock(fn, *fn.block(a),
                                                     live_out));
    // p has three consumers and N[2]'s y has three: one move each.
    EXPECT_EQ(res.fanoutMoves, 2u);
    EXPECT_EQ(res.nullWrites, 1u);
    EXPECT_EQ(scheduleFunction(fn)[a], reference::scheduleBlock(*fn.block(a)));
}

/**
 * Null writes come out in ascending register order, whatever order the
 * writers appear in, and a complementary pair needs none.
 */
TEST(WalkReference, NullWritesAscendByRegister)
{
    Function fn;
    IRBuilder b(fn);
    BlockId a = b.makeBlock();
    BlockId c = b.makeBlock();
    fn.setEntry(a);
    const Vreg p = fn.newVreg(), q = fn.newVreg();
    std::vector<Vreg> outs;
    for (int i = 0; i < 4; ++i)
        outs.push_back(fn.newVreg());
    fn.argRegs = {p, q};
    b.setBlock(a);
    auto write = [&](Vreg dest, Vreg guard, bool on_true) {
        Instruction inst = Instruction::unary(Opcode::Mov, dest,
                                              Operand::makeImm(dest));
        inst.pred = Predicate::onReg(guard, on_true);
        b.emit(inst);
    };
    write(outs[3], p, true);
    write(outs[1], q, false);
    write(outs[2], p, true); // complementary pair: no null write
    write(outs[2], p, false);
    write(outs[0], p, true); // three writers: one null write
    write(outs[0], p, false);
    write(outs[0], q, true);
    b.br(c);
    b.setBlock(c);
    Vreg sum = b.add(IRBuilder::r(outs[0]), IRBuilder::r(outs[1]));
    sum = b.add(IRBuilder::r(sum), IRBuilder::r(outs[2]));
    sum = b.add(IRBuilder::r(sum), IRBuilder::r(outs[3]));
    b.ret(IRBuilder::r(sum));

    Function got = fn.clone();
    Function want = fn.clone();
    ASSERT_EQ(normalizeOutputsFunction(got), 3u);
    ASSERT_EQ(reference::normalizeOutputsFunction(want), 3u);
    const auto &insts = got.block(a)->insts;
    ASSERT_EQ(insts.size(), want.block(a)->insts.size());
    for (size_t i = 0; i < insts.size(); ++i)
        EXPECT_TRUE(insts[i].sameAs(want.block(a)->insts[i])) << i;
    // Appended after the branch, by ascending register.
    const size_t base = insts.size() - 3;
    EXPECT_EQ(insts[base].dest, outs[0]);
    EXPECT_EQ(insts[base].pred, Predicate::onReg(q, false));
    EXPECT_EQ(insts[base + 1].dest, outs[1]);
    EXPECT_EQ(insts[base + 1].pred, Predicate::onReg(q, true));
    EXPECT_EQ(insts[base + 2].dest, outs[3]);
    EXPECT_EQ(insts[base + 2].pred, Predicate::onReg(p, false));
}

} // namespace
} // namespace chf
