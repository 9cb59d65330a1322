/**
 * @file
 * Tests for chf::TargetModel (src/target/target_model.h): the registry,
 * model validation, the legality checks over degenerate geometries,
 * and the bank geometry's register read budget in checkBlockLegal.
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
    const TargetModel trips; // a default TargetModel is the trips model
    EXPECT_EQ(trips.name, "trips");
    EXPECT_EQ(trips.maxInsts, 128u);
    EXPECT_EQ(trips.maxMemOps, 32u);
    EXPECT_EQ(trips.numRegBanks, 4u);
    EXPECT_EQ(trips.maxRegReads(), 32u);
    EXPECT_EQ(trips.maxRegWrites(), 32u);
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
    res.regWrites = 4;
    EXPECT_TRUE(checkBlockLegal(res, one_bank).empty());

    // With one bank the total budget is the per-bank limit; the
    // degenerate geometry must still reject, with banks*perBank as the
    // budget.
    res.regReads = 5;
    std::string why = checkBlockLegal(res, one_bank);
    EXPECT_NE(why.find("reads exceed 4"), std::string::npos) << why;

    res.regReads = 4;
    res.regWrites = 5;
    why = checkBlockLegal(res, one_bank);
    EXPECT_NE(why.find("writes exceed 4"), std::string::npos) << why;
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

TEST(TargetModel, BranchBudgetFiresOnlyWhenConfigured)
{
    BlockResources res;
    res.insts = 10;
    res.branches = 5;

    EXPECT_TRUE(checkBlockLegal(res, TargetModel{}).empty());

    TargetModel bounded;
    bounded.maxBranches = 4;
    std::string why = checkBlockLegal(res, bounded);
    EXPECT_NE(why.find("exit branches"), std::string::npos) << why;
}

// ----- bank geometry bounds the register reads -----

/** One block reading 6 distinct upward-exposed vregs. */
struct SixReadFixture
{
    Function fn;
    BlockId id;

    SixReadFixture()
    {
        IRBuilder b(fn);
        id = b.makeBlock();
        fn.setEntry(id);
        std::vector<Vreg> ins;
        for (int i = 0; i < 6; ++i)
            ins.push_back(fn.newVreg());
        b.setBlock(id);
        Vreg acc = b.add(IRBuilder::r(ins[0]), IRBuilder::r(ins[1]));
        for (int i = 2; i < 6; ++i)
            acc = b.add(IRBuilder::r(acc), IRBuilder::r(ins[i]));
        b.ret(IRBuilder::r(acc));
    }
};

TEST(TargetModel, TightBankGeometryRejectsWhatTripsAccepts)
{
    SixReadFixture fx;
    BitVector live_out(fx.fn.numVregs());
    BlockAnalysisScratch scratch;

    EXPECT_TRUE(checkBlockLegal(*fx.fn.block(fx.id), live_out, TargetModel{},
                                0, scratch)
                    .empty());

    // 6 upward-exposed reads: TRIPS allows 4 banks x 8 = 32, a 2-bank
    // model with 2 reads per bank only 4.
    TargetModel narrow;
    narrow.numRegBanks = 2;
    narrow.maxReadsPerBank = 2;
    BlockResources res = analyzeBlock(*fx.fn.block(fx.id), live_out, scratch);
    EXPECT_EQ(res.regReads, 6u);
    std::string why = checkBlockLegal(res, narrow);
    EXPECT_NE(why.find("6 register reads exceed 4"), std::string::npos)
        << why;
    EXPECT_EQ(why, checkBlockLegal(*fx.fn.block(fx.id), live_out, narrow, 0,
                                   scratch));
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
