/**
 * @file
 * Tests for chf::TargetModel (src/target/target_model.h): the registry,
 * model validation, the legality checks over degenerate geometries,
 * and the explicit bank-geometry flow into analyzeBlock.
 */

#include <gtest/gtest.h>

#include "backend/asm_writer.h"
#include "hyperblock/constraints.h"
#include "ir/builder.h"
#include "pipeline/session.h"
#include "sim/functional_sim.h"
#include "workloads/workloads.h"

namespace chf {
namespace {

// ----- registry -----

TEST(TargetModel, RegistryHasTripsAndSynthetics)
{
    const std::vector<TargetModel> &registry = targetRegistry();
    ASSERT_GE(registry.size(), 4u);
    EXPECT_EQ(registry[0].name, "trips");

    for (const char *name :
         {"trips", "trips-wide", "small-block", "deep-lsq"}) {
        const TargetModel *model = findTarget(name);
        ASSERT_NE(model, nullptr) << name;
        EXPECT_EQ(model->name, name);
        EXPECT_TRUE(model->validate().empty()) << name;
    }
    EXPECT_EQ(findTarget("nosuch"), nullptr);
    EXPECT_NE(targetNamesJoined().find("small-block"),
              std::string::npos);
}

TEST(TargetModel, TripsDefaultsMatchThePaperNumbers)
{
    const TargetModel &trips = tripsTarget();
    EXPECT_EQ(trips.maxInsts, 128u);
    EXPECT_EQ(trips.maxMemOps, 32u);
    EXPECT_EQ(trips.numRegBanks, 4u);
    EXPECT_EQ(trips.maxRegReads(), 32u);
    EXPECT_EQ(trips.maxRegWrites(), 32u);
    EXPECT_EQ(trips.effectiveMemOps(), 32u);
    EXPECT_EQ(trips.maxBranches, 0u); // unlimited: the reference model
}

TEST(TargetModel, ValidateRejectsBrokenGeometries)
{
    TargetModel ok;
    EXPECT_TRUE(ok.validate().empty());

    TargetModel m = ok;
    m.maxInsts = 0;
    EXPECT_FALSE(m.validate().empty());

    m = ok;
    m.numRegBanks = 0;
    EXPECT_FALSE(m.validate().empty());

    m = ok;
    m.numRegBanks = TargetModel::kMaxBanks + 1;
    EXPECT_FALSE(m.validate().empty());

    m = ok;
    m.spillHeadroom = m.maxInsts;
    EXPECT_FALSE(m.validate().empty());

    m = ok;
    m.numPhysRegs = 0;
    EXPECT_FALSE(m.validate().empty());
}

// ----- legality over degenerate geometries -----

TEST(TargetModel, CheckBlockLegalSingleBankGeometry)
{
    TargetModel one_bank;
    one_bank.numRegBanks = 1;
    one_bank.maxReadsPerBank = 4;
    one_bank.maxWritesPerBank = 4;

    BlockResources res;
    res.insts = 8;
    res.regReads = 3;
    res.bankReads[0] = 3;
    EXPECT_TRUE(checkBlockLegal(res, one_bank, 0, true).empty());

    // With one bank the total limit coincides with the per-bank limit,
    // so the total check fires first; the degenerate geometry must
    // still reject, with banks*perBank as the budget.
    res.regReads = 5;
    res.bankReads[0] = 5; // every read lands in the only bank
    std::string why = checkBlockLegal(res, one_bank, 0, true);
    EXPECT_NE(why.find("reads exceed 4"), std::string::npos) << why;

    // The bank loop itself covers exactly bank 0 at this geometry.
    BlockResources skewed;
    skewed.insts = 4;
    skewed.regReads = 2;
    skewed.bankReads[0] = 5;
    std::string bank_why = checkBlockLegal(skewed, one_bank, 0, true);
    EXPECT_NE(bank_why.find("bank 0"), std::string::npos) << bank_why;
}

TEST(TargetModel, CheckBlockLegalHeadroomExceedsMaxInsts)
{
    TargetModel tiny;
    tiny.maxInsts = 8;
    BlockResources empty;
    // Even a resource-free block fails when the spill headroom alone
    // exceeds the block budget.
    std::string why = checkBlockLegal(empty, tiny, /*headroom=*/16);
    EXPECT_NE(why.find("headroom"), std::string::npos) << why;
}

TEST(TargetModel, CheckBlockLegalZeroMemOpBudget)
{
    TargetModel no_mem;
    no_mem.maxMemOps = 0;
    BlockResources res;
    res.insts = 2;
    res.memOps = 1;
    std::string why = checkBlockLegal(res, no_mem);
    EXPECT_NE(why.find("memory ops"), std::string::npos) << why;
}

TEST(TargetModel, LsqDepthCapsTheMemOpBudget)
{
    TargetModel shallow;
    shallow.maxMemOps = 32;
    shallow.lsqDepth = 4;
    EXPECT_EQ(shallow.effectiveMemOps(), 4u);

    BlockResources res;
    res.insts = 10;
    res.memOps = 5;
    std::string why = checkBlockLegal(res, shallow);
    EXPECT_NE(why.find("exceed 4"), std::string::npos) << why;
}

TEST(TargetModel, BranchBudgetFiresOnlyWhenConfigured)
{
    BlockResources res;
    res.insts = 10;
    res.branches = 5;

    EXPECT_TRUE(checkBlockLegal(res, tripsTarget()).empty());

    TargetModel bounded;
    bounded.maxBranches = 4;
    std::string why = checkBlockLegal(res, bounded);
    EXPECT_NE(why.find("exit branches"), std::string::npos) << why;
}

// ----- bank geometry flows into the analyzer -----

/** One block reading 8 distinct upward-exposed vregs. */
struct EightReadFixture
{
    Function fn;
    BlockId id;

    EightReadFixture()
    {
        IRBuilder b(fn);
        id = b.makeBlock();
        fn.setEntry(id);
        std::vector<Vreg> ins;
        for (int i = 0; i < 8; ++i)
            ins.push_back(fn.newVreg());
        b.setBlock(id);
        Vreg acc = b.add(IRBuilder::r(ins[0]), IRBuilder::r(ins[1]));
        for (int i = 2; i < 8; ++i)
            acc = b.add(IRBuilder::r(acc), IRBuilder::r(ins[i]));
        b.ret(IRBuilder::r(acc));
    }
};

TEST(TargetModel, BankGeometryChangesBankReadEstimates)
{
    EightReadFixture fx;
    BitVector live_out(fx.fn.numVregs());

    auto analyzed = [&](size_t banks) {
        TargetModel model;
        model.numRegBanks = banks;
        return analyzeBlock(fx.fn, *fx.fn.block(fx.id), live_out,
                            model);
    };

    BlockResources four = analyzed(4);
    BlockResources two = analyzed(2);
    BlockResources eight = analyzed(8);

    // Same totals whatever the geometry...
    EXPECT_EQ(four.regReads, 8u);
    EXPECT_EQ(two.regReads, 8u);
    EXPECT_EQ(eight.regReads, 8u);

    // ...but the per-bank distribution follows the model: 8 vregs
    // spread v mod banks. A non-4-bank target must produce different
    // bankReads than the TRIPS geometry (the old proxy hardwired 4).
    EXPECT_EQ(four.bankReads[0], 2u);
    EXPECT_EQ(two.bankReads[0], 4u);
    EXPECT_EQ(eight.bankReads[0], 1u);
    EXPECT_NE(two.bankReads[0], four.bankReads[0]);
    EXPECT_NE(eight.bankReads[0], four.bankReads[0]);
    // Banks past the geometry stay empty.
    EXPECT_EQ(two.bankReads[2], 0u);
    EXPECT_EQ(two.bankReads[3], 0u);
}

/** A block reading only even-numbered vregs: under a 2-bank (v mod 2)
 *  geometry every read concentrates in bank 0. */
struct SkewedReadFixture
{
    Function fn;
    BlockId id;

    SkewedReadFixture()
    {
        IRBuilder b(fn);
        id = b.makeBlock();
        fn.setEntry(id);
        std::vector<Vreg> ins;
        for (int i = 0; i < 12; ++i)
            ins.push_back(fn.newVreg());
        b.setBlock(id);
        Vreg acc = b.add(IRBuilder::r(ins[0]), IRBuilder::r(ins[2]));
        for (int i = 4; i < 12; i += 2)
            acc = b.add(IRBuilder::r(acc), IRBuilder::r(ins[i]));
        b.ret(IRBuilder::r(acc));
    }
};

TEST(TargetModel, TightBankGeometryRejectsWhatTripsAccepts)
{
    SkewedReadFixture fx;
    BitVector live_out(fx.fn.numVregs());

    EXPECT_TRUE(checkBlockLegal(fx.fn, *fx.fn.block(fx.id), live_out,
                                tripsTarget())
                    .empty());

    // 6 upward-exposed reads, all even vregs: a 2-bank model sees all
    // 6 in bank 0. Total budget 2x4=8 passes; bank 0's 4-read limit
    // is what rejects — the per-bank check, not the total proxy.
    TargetModel narrow;
    narrow.numRegBanks = 2;
    narrow.maxReadsPerBank = 4;
    BlockResources res = analyzeBlock(fx.fn, *fx.fn.block(fx.id),
                                      live_out, narrow);
    EXPECT_EQ(res.regReads, 6u);
    EXPECT_EQ(res.bankReads[0], 6u);
    EXPECT_EQ(res.bankReads[1], 0u);
    std::string why = checkBlockLegal(res, narrow, 0, true);
    EXPECT_NE(why.find("bank 0"), std::string::npos) << why;
}

// ----- session wiring -----

TEST(TargetModel, WithTargetByNameSelectsTheRegistryModel)
{
    SessionOptions options = SessionOptions().withTarget("small-block");
    EXPECT_EQ(options.target.name, "small-block");
    EXPECT_EQ(options.target.maxInsts, 32u);
    EXPECT_EQ(options.target.numRegBanks, 2u);
}

TEST(TargetModel, TargetChangesCompiledOutput)
{
    const Workload *workload = findWorkload("bzip2_3");
    ASSERT_NE(workload, nullptr);

    auto compileFor = [&](const char *target) {
        Session session(SessionOptions().withTarget(target));
        Program program = buildWorkload(*workload);
        ProfileData profile = prepareProgram(program);
        size_t unit = session.addProgram(std::move(program),
                                         std::move(profile));
        session.compile();
        FuncSimResult run = runFunctional(session.program(unit));
        return std::make_pair(
            writeFunctionAsm(session.program(unit).fn),
            run.returnValue);
    };

    auto [trips_asm, trips_ret] = compileFor("trips");
    auto [small_asm, small_ret] = compileFor("small-block");
    // A 32-inst, 2-bank target must form different blocks than TRIPS,
    // while both stay semantics-preserving.
    EXPECT_NE(trips_asm, small_asm);
    EXPECT_EQ(trips_ret, small_ret);
}

} // namespace
} // namespace chf
