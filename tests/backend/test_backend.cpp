/**
 * @file
 * Backend tests: register allocation (including forced spilling and
 * the reverse-if-conversion path), fanout insertion, and the spatial
 * scheduler; plus reference-differential tests that hold the
 * single-pass fanout and spill rewrites to the instruction streams of
 * the rescanning algorithms they replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>

#include "analysis/liveness.h"
#include "backend/fanout.h"
#include "backend/regalloc.h"
#include "backend/scheduler.h"
#include "hyperblock/phase_ordering.h"
#include "ir/builder.h"
#include "ir/printer.h"
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

    size_t moves = insertFanoutFunction(fn);
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

    insertFanoutFunction(fn);
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
    EXPECT_EQ(insertFanoutFunction(fn), 0u);
}

// ----- Reference oracles -----
//
// The backend used to insert fanout by rescanning its block after
// every split, and spill code by rewriting every block once per
// spilled value. Both live on here, unchanged, as oracles: the
// single-pass passes must reproduce their instruction streams and
// register numbering exactly.

/** Rescanning fanout: one split per rescan, at most 4096 rescans. */
size_t
referenceFanout(Function &fn, BasicBlock &bb)
{
    size_t moves = 0;
    bool changed = true;
    int guard = 0;
    while (changed && guard++ < 4096) {
        changed = false;
        std::map<Vreg, size_t> provider;
        std::map<size_t, std::vector<std::pair<size_t, int>>> consumers;
        for (size_t i = 0; i < bb.insts.size(); ++i) {
            const Instruction &inst = bb.insts[i];
            for (int s = 0; s < inst.numSrcs(); ++s) {
                if (!inst.srcs[s].isReg())
                    continue;
                auto it = provider.find(inst.srcs[s].reg);
                if (it != provider.end())
                    consumers[it->second].emplace_back(i, s);
            }
            if (inst.pred.valid()) {
                auto it = provider.find(inst.pred.reg);
                if (it != provider.end())
                    consumers[it->second].emplace_back(i, -1);
            }
            if (inst.hasDest())
                provider[inst.dest] = i;
        }
        for (auto &[prod_idx, uses] : consumers) {
            if (uses.size() <= kMaxTargets)
                continue;
            Vreg orig = bb.insts[prod_idx].dest;
            auto rewire = [&](size_t from, size_t to, Vreg copy) {
                for (size_t u = from; u < to; ++u) {
                    auto [ci, slot] = uses[u];
                    Instruction &consumer = bb.insts[ci];
                    if (slot < 0)
                        consumer.pred.reg = copy;
                    else
                        consumer.srcs[slot] = Operand::makeReg(copy);
                }
            };
            if (uses.size() <= kMaxTargets + 1) {
                Vreg copy = fn.newVreg();
                rewire(kMaxTargets - 1, uses.size(), copy);
                bb.insts.insert(bb.insts.begin() +
                                    static_cast<long>(prod_idx) + 1,
                                Instruction::unary(
                                    Opcode::Mov, copy,
                                    Operand::makeReg(orig)));
                ++moves;
            } else {
                Vreg left = fn.newVreg();
                Vreg right = fn.newVreg();
                size_t half = uses.size() / 2;
                rewire(0, half, left);
                rewire(half, uses.size(), right);
                bb.insts.insert(
                    bb.insts.begin() + static_cast<long>(prod_idx) + 1,
                    Instruction::unary(Opcode::Mov, right,
                                       Operand::makeReg(orig)));
                bb.insts.insert(
                    bb.insts.begin() + static_cast<long>(prod_idx) + 1,
                    Instruction::unary(Opcode::Mov, left,
                                       Operand::makeReg(orig)));
                moves += 2;
            }
            changed = true;
            break; // indices are stale; rescan
        }
    }
    return moves;
}

/** One spilled value in one block, as the per-value loop rewrote it. */
size_t
referenceSpillInBlock(BasicBlock &bb, Vreg reg, int64_t slot_addr,
                      const BitVector &live_in, const BitVector &live_out)
{
    size_t inserted = 0;
    std::vector<Instruction> out;
    out.reserve(bb.insts.size() + 2);

    bool defined = false;
    bool has_predicated_def = false;
    for (const auto &inst : bb.insts) {
        if (inst.hasDest() && inst.dest == reg) {
            defined = true;
            if (inst.pred.valid())
                has_predicated_def = true;
        }
    }
    BitVector uses, killed;
    blockUsesInto(bb, static_cast<uint32_t>(live_in.size()), uses, killed);
    bool store_at_exit = defined && live_out.test(reg);
    if (live_in.test(reg) &&
        (uses.test(reg) || (store_at_exit && has_predicated_def))) {
        out.push_back(Instruction::load(reg,
                                        Operand::makeImm(slot_addr),
                                        Operand::makeImm(0)));
        ++inserted;
    }
    for (const auto &inst : bb.insts)
        out.push_back(inst);
    if (store_at_exit) {
        out.push_back(Instruction::store(Operand::makeImm(slot_addr),
                                         Operand::makeImm(0),
                                         Operand::makeReg(reg)));
        ++inserted;
    }
    bb.insts = std::move(out);
    return inserted;
}

/** Every block once per spilled value, then the argument stores. */
size_t
referenceSpillCode(Function &fn, const std::vector<Vreg> &spilled,
                   int64_t slot_base, const Liveness &liveness)
{
    size_t inserted = 0;
    for (size_t i = 0; i < spilled.size(); ++i) {
        int64_t slot = slot_base + static_cast<int64_t>(i);
        for (BlockId id : fn.blockIds()) {
            inserted += referenceSpillInBlock(
                *fn.block(id), spilled[i], slot, liveness.liveIn(id),
                liveness.liveOut(id));
        }
    }
    for (size_t i = 0; i < spilled.size(); ++i) {
        Vreg reg = spilled[i];
        if (std::find(fn.argRegs.begin(), fn.argRegs.end(), reg) ==
            fn.argRegs.end())
            continue;
        BasicBlock *entry = fn.block(fn.entry());
        entry->insts.insert(
            entry->insts.begin(),
            Instruction::store(
                Operand::makeImm(slot_base + static_cast<int64_t>(i)),
                Operand::makeImm(0), Operand::makeReg(reg)));
        ++inserted;
    }
    return inserted;
}

/** Same blocks, same instructions in the same order, same registers. */
void
expectSameCode(const Function &want, const Function &got)
{
    EXPECT_EQ(got.numVregs(), want.numVregs());
    for (BlockId id : want.blockIds()) {
        const auto &a = want.block(id)->insts;
        const auto &b = got.block(id)->insts;
        ASSERT_EQ(b.size(), a.size()) << "block " << id;
        for (size_t i = 0; i < a.size(); ++i) {
            ASSERT_TRUE(b[i].sameAs(a[i]))
                << "block " << id << " inst " << i << ": want "
                << toString(a[i]) << ", got " << toString(b[i]);
        }
    }
}

/**
 * Run the oracle and the pass on copies of @p fn and compare them.
 * @return the pass's output.
 */
Function
expectFanoutMatchesReference(const Function &fn)
{
    Function want = fn.clone();
    Function got = fn.clone();
    size_t want_moves = 0;
    for (BlockId id : want.blockIds())
        want_moves += referenceFanout(want, *want.block(id));
    EXPECT_EQ(insertFanoutFunction(got), want_moves);
    expectSameCode(want, got);
    return got;
}

/** Reads of @p v in @p bb, over source and predicate slots. */
size_t
readsOf(const BasicBlock &bb, Vreg v)
{
    size_t n = 0;
    for (const auto &inst : bb.insts)
        inst.forEachUse([&](Vreg r) { n += r == v; });
    return n;
}

/**
 * Append consumers of @p v to the current block until it has been
 * read @p n more times: movs, adds and stores reading @p v in one to
 * three source slots, often also in the predicate slot, with a filler
 * instruction reading @p other between some of them.
 */
void
appendConsumers(IRBuilder &b, Function &fn, std::mt19937_64 &rng, Vreg v,
                Vreg other, size_t n)
{
    while (n > 0) {
        if (rng() % 4 == 0)
            b.add(IRBuilder::r(other), IRBuilder::imm(1));
        Instruction inst;
        switch (rng() % 3) {
          case 0:
            inst = Instruction::unary(Opcode::Mov, fn.newVreg(),
                                      IRBuilder::r(other));
            break;
          case 1:
            inst = Instruction::binary(Opcode::Add, fn.newVreg(),
                                       IRBuilder::r(other),
                                       IRBuilder::imm(2));
            break;
          default:
            inst = Instruction::store(IRBuilder::imm(0),
                                      IRBuilder::r(other),
                                      IRBuilder::imm(3));
        }
        for (int s = 0; s < inst.numSrcs() && n > 0; ++s) {
            if (s == 0 || rng() % 2) {
                inst.srcs[s] = IRBuilder::r(v);
                --n;
            }
        }
        if (n > 0 && rng() % 3 == 0) {
            inst.pred = Predicate::onReg(v, rng() % 2);
            --n;
        }
        b.emit(inst);
    }
}

TEST(FanoutReference, ProducersWithThreeToAHundredConsumers)
{
    for (size_t n : {3u, 4u, 5u, 17u, 100u}) {
        for (uint64_t seed = 1; seed <= 8; ++seed) {
            std::mt19937_64 rng(seed);
            Function fn;
            IRBuilder b(fn);
            BlockId id = b.makeBlock();
            fn.setEntry(id);
            b.setBlock(id);
            Vreg other = fn.newVreg(); // live-in: the file broadcasts it
            Vreg v = b.constant(7);
            appendConsumers(b, fn, rng, v, other, n);
            b.ret(IRBuilder::r(other));
            ASSERT_EQ(readsOf(*fn.block(id), v), n);
            SCOPED_TRACE("consumers " + std::to_string(n) + " seed " +
                         std::to_string(seed));
            expectFanoutMatchesReference(fn);
        }
    }
}

TEST(FanoutReference, PredicateSlotConsumers)
{
    Function fn;
    IRBuilder b(fn);
    BlockId id = b.makeBlock();
    fn.setEntry(id);
    b.setBlock(id);
    Vreg p = b.binary(Opcode::Tlt, IRBuilder::imm(1), IRBuilder::imm(2));
    for (int i = 0; i < 9; ++i) {
        Instruction inst = Instruction::unary(
            Opcode::Mov, fn.newVreg(), Operand::makeImm(i));
        inst.pred = Predicate::onReg(p, i % 2);
        b.emit(inst);
    }
    // The predicate also read as data, in the same instruction.
    Instruction both = Instruction::binary(
        Opcode::Add, fn.newVreg(), IRBuilder::r(p), IRBuilder::imm(1));
    both.pred = Predicate::onReg(p, true);
    b.emit(both);
    b.ret(IRBuilder::imm(0));
    expectFanoutMatchesReference(fn);
}

TEST(FanoutReference, OneInstructionReadsTwoSlots)
{
    for (size_t n : {3u, 4u, 6u, 11u}) {
        Function fn;
        IRBuilder b(fn);
        BlockId id = b.makeBlock();
        fn.setEntry(id);
        b.setBlock(id);
        Vreg v = b.constant(3);
        for (size_t i = 0; i < n; ++i)
            b.add(IRBuilder::r(v), IRBuilder::r(v));
        b.emit(Instruction::store(IRBuilder::r(v), IRBuilder::r(v),
                                  IRBuilder::r(v)));
        b.ret(IRBuilder::r(v));
        SCOPED_TRACE("pairs " + std::to_string(n));
        expectFanoutMatchesReference(fn);
    }
}

TEST(FanoutReference, ProducerRedefinedMidBlock)
{
    for (bool predicated : {false, true}) {
        for (uint64_t seed = 1; seed <= 6; ++seed) {
            std::mt19937_64 rng(seed);
            Function fn;
            IRBuilder b(fn);
            BlockId id = b.makeBlock();
            fn.setEntry(id);
            b.setBlock(id);
            Vreg other = fn.newVreg();
            Vreg p = b.binary(Opcode::Tlt, IRBuilder::r(other),
                              IRBuilder::imm(5));
            Vreg v = b.constant(1);
            appendConsumers(b, fn, rng, v, other, 3 + rng() % 9);
            // The redefinition reads the old value: it is a consumer of
            // the first producer and the producer of what follows.
            Instruction redef = Instruction::binary(
                Opcode::Add, v, IRBuilder::r(v), IRBuilder::imm(1));
            if (predicated)
                redef.pred = Predicate::onReg(p, true);
            b.emit(redef);
            appendConsumers(b, fn, rng, v, other, 3 + rng() % 9);
            b.movTo(v, IRBuilder::r(other));
            appendConsumers(b, fn, rng, v, other, 1 + rng() % 5);
            b.ret(IRBuilder::r(v));
            SCOPED_TRACE(std::string(predicated ? "predicated" : "plain") +
                         " seed " + std::to_string(seed));
            expectFanoutMatchesReference(fn);
        }
    }
}

TEST(FanoutReference, SplitBudgetBoundsABlock)
{
    // 6144 consumers take 4095 split steps; the second producer's five
    // need two more, so the block runs out of its 4096-step budget
    // with the second tree half built.
    std::mt19937_64 rng(4096);
    Function fn;
    IRBuilder b(fn);
    BlockId id = b.makeBlock();
    fn.setEntry(id);
    b.setBlock(id);
    Vreg other = fn.newVreg();
    Vreg wide = b.constant(1);
    for (int i = 0; i < 1536; ++i) {
        Instruction inst = Instruction::store(
            IRBuilder::r(wide), IRBuilder::r(wide), IRBuilder::r(wide));
        inst.pred = Predicate::onReg(wide, true);
        b.emit(inst);
    }
    Vreg next = b.constant(2);
    appendConsumers(b, fn, rng, next, other, 5);
    b.ret(IRBuilder::r(other));
    Function got = expectFanoutMatchesReference(fn);

    std::map<Vreg, size_t> reads;
    for (const auto &inst : got.block(id)->insts)
        inst.forEachUse([&](Vreg r) { reads[r]++; });
    size_t over = 0;
    for (const auto &[reg, count] : reads)
        over += reg != other && count > kMaxTargets;
    EXPECT_EQ(over, 1u);
}

/**
 * A seeded random straight-line block: a couple of live-ins, then
 * movs, adds, tests and stores whose sources lean on the newest
 * registers (so some producers get many consumers), a fifth of them
 * predicated and a tenth redefining an older register.
 */
void
appendRandomBlock(Function &fn, IRBuilder &b, std::mt19937_64 &rng,
                  size_t insts)
{
    std::vector<Vreg> regs = {fn.newVreg(), fn.newVreg()};
    auto pick = [&]() {
        if (rng() % 5 < 3)
            return regs[regs.size() - 1 - rng() % std::min<size_t>(
                                                 regs.size(), 3)];
        return regs[rng() % regs.size()];
    };
    auto operand = [&]() {
        return rng() % 5 ? IRBuilder::r(pick())
                         : IRBuilder::imm(static_cast<int64_t>(rng() % 16));
    };
    for (size_t n = 0; n < insts; ++n) {
        Instruction inst;
        switch (rng() % 4) {
          case 0:
            inst = Instruction::unary(Opcode::Mov, kNoVreg, operand());
            break;
          case 1:
            inst = Instruction::binary(Opcode::Add, kNoVreg, operand(),
                                       operand());
            break;
          case 2:
            inst = Instruction::binary(Opcode::Tlt, kNoVreg, operand(),
                                       operand());
            break;
          default:
            inst = Instruction::store(operand(), operand(), operand());
        }
        if (rng() % 5 == 0)
            inst.pred = Predicate::onReg(pick(), rng() % 2);
        if (inst.op != Opcode::Store) {
            if (rng() % 10 == 0) {
                inst.dest = regs[rng() % regs.size()];
            } else {
                inst.dest = fn.newVreg();
                regs.push_back(inst.dest);
            }
        }
        b.emit(inst);
    }
    b.ret(IRBuilder::r(pick()));
}

TEST(FanoutReference, SeededRandomFunctions)
{
    // Several blocks per function: insertFanoutFunction's per-register
    // table is shared across them.
    size_t moves = 0;
    for (uint64_t seed = 1; seed <= 200; ++seed) {
        std::mt19937_64 rng(seed);
        Function fn;
        IRBuilder b(fn);
        size_t blocks = 1 + rng() % 4;
        for (size_t k = 0; k < blocks; ++k) {
            BlockId id = b.makeBlock();
            if (k == 0)
                fn.setEntry(id);
            b.setBlock(id);
            appendRandomBlock(fn, b, rng, 10 + rng() % 60);
        }
        SCOPED_TRACE("seed " + std::to_string(seed));
        moves += expectFanoutMatchesReference(fn).totalInsts() -
                 fn.totalInsts();
    }
    EXPECT_GT(moves, 1000u);
}

/**
 * A seeded random function for spill rewriting: @p blocks blocks over
 * a pool of twelve registers, the first two of them arguments. Every
 * block reads and writes the pool, about a third of the writes
 * predicated, and branches to the next block and to a random one
 * (loops included), so most of the pool is live across blocks and
 * blocks share spilled values.
 */
Function
randomSpillFunction(std::mt19937_64 &rng, size_t blocks)
{
    Function fn;
    IRBuilder b(fn);
    std::vector<BlockId> ids;
    for (size_t k = 0; k < blocks; ++k)
        ids.push_back(b.makeBlock());
    fn.setEntry(ids[0]);
    std::vector<Vreg> pool;
    for (int i = 0; i < 12; ++i)
        pool.push_back(fn.newVreg());
    fn.argRegs = {pool[0], pool[1]};
    auto any = [&]() { return pool[rng() % pool.size()]; };
    for (size_t k = 0; k < blocks; ++k) {
        b.setBlock(ids[k]);
        size_t n = 1 + rng() % 8;
        for (size_t i = 0; i < n; ++i) {
            Instruction inst = Instruction::binary(
                Opcode::Add, any(), IRBuilder::r(any()),
                rng() % 2 ? IRBuilder::r(any()) : IRBuilder::imm(1));
            if (rng() % 3 == 0)
                inst.pred = Predicate::onReg(any(), rng() % 2);
            b.emit(inst);
        }
        if (k + 1 == blocks)
            b.ret(IRBuilder::r(any()));
        else
            b.brCond(any(), ids[rng() % blocks], ids[k + 1]);
    }
    return fn;
}

TEST(RegAllocReference, SpilledValuesShareBlocks)
{
    size_t arg_spills = 0;
    size_t inserted = 0;
    for (uint64_t seed = 1; seed <= 200; ++seed) {
        std::mt19937_64 rng(seed);
        Function fn = randomSpillFunction(rng, 2 + rng() % 6);
        Liveness liveness(fn);

        // Spill a random subset of the cross-block values and the
        // arguments, in a random order.
        BitVector candidates(liveness.universe());
        for (BlockId id : fn.blockIds())
            candidates.unionWith(liveness.liveIn(id));
        for (Vreg arg : fn.argRegs)
            candidates.set(arg);
        std::vector<Vreg> spilled;
        for (Vreg v : candidates.bits()) {
            if (rng() % 3)
                spilled.push_back(v);
        }
        std::shuffle(spilled.begin(), spilled.end(), rng);
        for (Vreg arg : fn.argRegs)
            arg_spills += std::count(spilled.begin(), spilled.end(), arg);

        Function want = fn.clone();
        Function got = fn.clone();
        SCOPED_TRACE("seed " + std::to_string(seed));
        size_t n = referenceSpillCode(want, spilled, 1000, liveness);
        EXPECT_EQ(insertSpillCode(got, spilled, 1000, liveness), n);
        expectSameCode(want, got);
        inserted += n;
    }
    EXPECT_GT(arg_spills, 100u);
    EXPECT_GT(inserted, 2000u);
}

TEST(RegAllocReference, PredicatedDefReloadsBeforeItsStore)
{
    // B1 only redefines v under a predicate; v is live in and out, so
    // B1 reloads v (the flow-through value) and stores it at exit.
    Function fn;
    IRBuilder b(fn);
    BlockId entry = b.makeBlock();
    BlockId body = b.makeBlock();
    BlockId exit = b.makeBlock();
    fn.setEntry(entry);
    Vreg x = fn.newVreg();
    Vreg w = fn.newVreg();
    fn.argRegs = {x, w};
    b.setBlock(entry);
    Vreg v = b.add(IRBuilder::r(x), IRBuilder::imm(1));
    Vreg p = b.binary(Opcode::Tlt, IRBuilder::r(x), IRBuilder::imm(4));
    b.br(body);
    b.setBlock(body);
    Instruction redef = Instruction::binary(Opcode::Add, v, IRBuilder::r(x),
                                            IRBuilder::r(w));
    redef.pred = Predicate::onReg(p, true);
    b.emit(redef);
    b.br(exit);
    b.setBlock(exit);
    b.ret(IRBuilder::r(v));

    Liveness liveness(fn);
    std::vector<Vreg> spilled = {v, x, p, w};
    Function want = fn.clone();
    Function got = fn.clone();
    size_t n = referenceSpillCode(want, spilled, 64, liveness);
    EXPECT_EQ(insertSpillCode(got, spilled, 64, liveness), n);
    expectSameCode(want, got);
    const auto &insts = got.block(body)->insts;
    ASSERT_GE(insts.size(), 3u);
    EXPECT_EQ(insts.back().op, Opcode::Store);
    EXPECT_TRUE(std::any_of(insts.begin(), insts.end(),
                            [&](const Instruction &inst) {
                                return inst.op == Opcode::Load &&
                                       inst.dest == v;
                            }));
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
    PlacementScratch scratch;
    Placement placement = scheduleBlock(*fn.block(id), options, scratch);
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
    PlacementScratch scratch;
    Placement placement = scheduleBlock(*fn.block(id), options, scratch);
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
