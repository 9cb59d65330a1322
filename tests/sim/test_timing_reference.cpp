/**
 * @file
 * runTiming, which decodes each block once per run, against the
 * per-instance walk it replaced (reference_timing.h). Every simulated
 * statistic -- cycles, blocks and instructions executed, predictions,
 * mispredicts, the return value and the memory hash -- must match
 * exactly on the 24 Table 1/2 kernels and on generator "bench" seeds
 * 1..20, each compiled under BB and (IUPO), under every non-default
 * TimingConfig the timing tests and the window ablation set, and on a
 * hand-built block that stores twice to one address. Tables 1-2 and
 * Figure 7 print these cycles.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hyperblock/phase_ordering.h"
#include "ir/builder.h"
#include "pipeline/session.h"
#include "reference_timing.h"
#include "sim/timing_sim.h"
#include "support/fatal.h"
#include "workloads/generator.h"
#include "workloads/workloads.h"

namespace chf {
namespace {

/** A compiled program and the name its failures print. */
struct Unit
{
    std::string label;
    Pipeline pipeline;
    Program program;
};

const Pipeline kPipelines[] = {Pipeline::BB, Pipeline::IUPO_fused};

/** The 24 kernels, prepared once and compiled under BB and (IUPO). */
const std::vector<Unit> &
kernelUnits()
{
    static const std::vector<Unit> units = [] {
        std::vector<Unit> out;
        for (Pipeline pipeline : kPipelines) {
            Session session(SessionOptions().withPipeline(pipeline));
            for (const Workload &w : microbenchmarks()) {
                Program program = buildWorkload(w);
                ProfileData profile = prepareProgram(program);
                session.addProgram(std::move(program),
                                   std::move(profile));
            }
            session.compile(1);
            for (size_t unit = 0; unit < session.size(); ++unit) {
                out.push_back({microbenchmarks()[unit].name + "/" +
                                   pipelineName(pipeline),
                               pipeline, session.program(unit).clone()});
            }
        }
        return out;
    }();
    return units;
}

/** Generator "bench" seeds 1..20 compiled under BB and (IUPO). */
const std::vector<Unit> &
generatedUnits()
{
    static const std::vector<Unit> units = [] {
        GeneratorShape shape;
        CHF_ASSERT(namedShape("bench", &shape));
        std::vector<Unit> out;
        for (Pipeline pipeline : kPipelines) {
            Session session(SessionOptions().withPipeline(pipeline));
            for (uint64_t seed = 1; seed <= 20; ++seed) {
                GeneratedProgram g = generateTinyC(seed, shape);
                session.addSource(g.source, "", g.args);
            }
            session.compile(1);
            for (size_t unit = 0; unit < session.size(); ++unit) {
                out.push_back({"gen_" + std::to_string(unit + 1) + "/" +
                                   pipelineName(pipeline),
                               pipeline, session.program(unit).clone()});
            }
        }
        return out;
    }();
    return units;
}

void
expectSameTiming(const Unit &unit, const TimingConfig &config,
                 const std::string &config_name)
{
    const std::string where = unit.label + " " + config_name;
    TimingResult want = reference::runTiming(unit.program, config);
    TimingResult got = runTiming(unit.program, config);
    EXPECT_EQ(got.cycles, want.cycles) << where;
    EXPECT_EQ(got.blocksExecuted, want.blocksExecuted) << where;
    EXPECT_EQ(got.instsExecuted, want.instsExecuted) << where;
    EXPECT_EQ(got.branchPredictions, want.branchPredictions) << where;
    EXPECT_EQ(got.branchMispredicts, want.branchMispredicts) << where;
    EXPECT_EQ(got.returnValue, want.returnValue) << where;
    EXPECT_EQ(got.memoryHash, want.memoryHash) << where;
}

TEST(TimingReference, TableKernels)
{
    ASSERT_EQ(kernelUnits().size(), 48u);
    for (const Unit &unit : kernelUnits())
        expectSameTiming(unit, TimingConfig{}, "default");
}

TEST(TimingReference, GeneratedBenchSeeds)
{
    ASSERT_EQ(generatedUnits().size(), 40u);
    for (const Unit &unit : generatedUnits())
        expectSameTiming(unit, TimingConfig{}, "default");
}

TEST(TimingReference, NonDefaultConfigs)
{
    // The timing tests' knobs one at a time, then the window ablation's
    // (window, dispatch interval) grid.
    std::vector<std::pair<std::string, TimingConfig>> configs;
    auto add = [&](const std::string &name, auto set) {
        TimingConfig config;
        set(config);
        configs.emplace_back(name, config);
    };
    add("window 1", [](TimingConfig &c) { c.maxInFlightBlocks = 1; });
    add("dispatch 1",
        [](TimingConfig &c) { c.blockDispatchInterval = 1; });
    add("dispatch 16",
        [](TimingConfig &c) { c.blockDispatchInterval = 16; });
    add("mispredict 0",
        [](TimingConfig &c) { c.mispredictPenalty = 0; });
    add("mispredict 40",
        [](TimingConfig &c) { c.mispredictPenalty = 40; });
    for (int window : {2, 4, 8}) {
        for (int dispatch : {4, 10}) {
            if (window == 8 && dispatch == 10)
                continue; // the default config
            add("window " + std::to_string(window) + " dispatch " +
                    std::to_string(dispatch),
                [&](TimingConfig &c) {
                    c.maxInFlightBlocks = window;
                    c.blockDispatchInterval = dispatch;
                });
        }
    }
    ASSERT_EQ(configs.size(), 10u);
    // These knobs act at block fetch and commit, so the sweep takes the
    // kernels' BB units, which execute over four times the blocks of
    // their (IUPO) units at a third of the reference's cost, and every
    // generated unit.
    for (const auto &[name, config] : configs) {
        for (const Unit &unit : kernelUnits()) {
            if (unit.pipeline == Pipeline::BB)
                expectSameTiming(unit, config, name);
        }
        for (const Unit &unit : generatedUnits())
            expectSameTiming(unit, config, name);
    }
}

TEST(TimingReference, SameAddressStoresInOneBlock)
{
    // A load after two stores to its address waits for the later one,
    // whose value arrives through a slow divide chain; a store to
    // another address sits between them. The walk keeps store times in
    // a flat list that a later same-address store must update in
    // place, where the reference assigns into a std::map.
    Function fn;
    IRBuilder b(fn);
    BlockId id = b.makeBlock();
    fn.setEntry(id);
    b.setBlock(id);
    Vreg c = b.constant(5);
    b.store(IRBuilder::imm(0), IRBuilder::imm(0), IRBuilder::r(c));
    b.store(IRBuilder::imm(1), IRBuilder::imm(0), IRBuilder::r(c));
    Vreg d = c;
    for (int i = 0; i < 3; ++i)
        d = b.binary(Opcode::Div, IRBuilder::r(d), IRBuilder::imm(1));
    b.store(IRBuilder::imm(0), IRBuilder::imm(0), IRBuilder::r(d));
    Vreg x = b.load(IRBuilder::imm(0), IRBuilder::imm(0));
    b.ret(IRBuilder::r(b.add(IRBuilder::r(x), IRBuilder::imm(1))));
    Unit unit;
    unit.label = "same-address stores";
    unit.pipeline = Pipeline::BB;
    unit.program.fn = std::move(fn);
    unit.program.memory.allocate("a", 2);
    expectSameTiming(unit, TimingConfig{}, "default");
}

} // namespace
} // namespace chf
