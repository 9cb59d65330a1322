/**
 * @file
 * optimizeFunction against the rebuild-per-pass reference
 * (reference_optimizer.h) on every function state that reaches it when
 * a digest-table unit compiles: synth64, the 24 Table 1/2 kernels under
 * BB and (IUPO), and generator "bench" seeds 1..200. The states come
 * from calling the phases directly, in the order prepareProgram and
 * compileUnit run them: the simplified frontend CFG, the unrolled CFG,
 * the formed function and the normalized function. Each state must give
 * the same printed IR and change count under both optimizers, and the
 * reference's DCE must never end on its 8-round cap, since
 * optimizeFunction runs DCE to its fixed point. The final assembly must
 * match the backend's digest table (tests/backend/asm_digests.inc),
 * which shows that the direct calls reproduce a Session compile.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "backend/asm_writer.h"
#include "backend/fanout.h"
#include "backend/regalloc.h"
#include "hyperblock/convergent.h"
#include "hyperblock/phase_ordering.h"
#include "hyperblock/policy.h"
#include "ir/printer.h"
#include "pipeline/session.h"
#include "reference_optimizer.h"
#include "sim/functional_sim.h"
#include "support/hash.h"
#include "transform/for_loop_unroll.h"
#include "transform/normalize_outputs.h"
#include "transform/reverse_if_convert.h"
#include "transform/simplify_cfg.h"
#include "workloads/generator.h"
#include "workloads/workloads.h"

namespace chf {
namespace {

struct RecordedDigest
{
    const char *unit;
    uint64_t digest;
};

const RecordedDigest kRecorded[] = {
#include "../backend/asm_digests.inc"
};

void
expectRecorded(const std::string &unit, const std::string &asm_text)
{
    Hash64 h;
    h.bytes(asm_text.data(), asm_text.size());
    for (const RecordedDigest &r : kRecorded) {
        if (unit == r.unit) {
            EXPECT_EQ(h.digest(), r.digest) << unit << ": asm digest";
            return;
        }
    }
    ADD_FAILURE() << unit << ": not in the digest table";
}

/** Optimizes each state it is given, checked against the reference. */
class CheckedOptimizer
{
  public:
    void
    operator()(Function &fn, const std::string &where)
    {
        Function want = fn.clone();
        bool capped = false;
        size_t want_changes = reference::optimizeFunction(want, capped);
        size_t got_changes = optimizeFunction(fn);
        EXPECT_FALSE(capped) << where << ": reference DCE hit its cap";
        EXPECT_EQ(got_changes, want_changes) << where;
        EXPECT_TRUE(toString(fn) == toString(want))
            << where << ": printed IR differs";
        ++states;
    }

    size_t states = 0;
};

/** prepareProgram's strict path, each optimizeFunction checked. */
void
prepare(Program &program, const std::vector<int64_t> &args,
        const std::string &unit, CheckedOptimizer &optimize)
{
    Function &fn = program.fn;
    simplifyCfg(fn);
    optimize(fn, unit + " frontend");
    simplifyCfg(fn);
    ProfileData profile = profileProgram(program, args);
    if (unrollForLoops(fn, profile) > 0) {
        simplifyCfg(fn);
        optimize(fn, unit + " unrolled");
        profileProgram(program, args);
    }
}

/** compileUnit's strict path from a prepared program to assembly. */
std::string
compile(Program &program, Pipeline pipeline, const std::string &unit,
        CheckedOptimizer &optimize)
{
    Function &fn = program.fn;
    const SessionOptions options;
    if (pipeline == Pipeline::IUPO_fused) {
        FormationOptions formation;
        formation.merge.target = options.target;
        formation.merge.sizeHeadroom = options.target.spillHeadroom;
        formation.merge.enableHeadDuplication = true;
        formation.merge.optimizeDuringMerge = true;
        formation.merge.enableBlockSplitting = options.blockSplitting;
        BreadthFirstPolicy policy;
        formHyperblocks(fn, policy, formation);
        optimize(fn, unit + " formed");
    }
    normalizeOutputsFunction(fn);
    optimize(fn, unit + " normalized");
    RegAllocOptions ra;
    ra.target = options.target;
    ra.numPhysRegs = options.target.numPhysRegs;
    allocateRegisters(program, ra);
    insertFanoutFunction(fn);
    splitOversizedBlocks(fn, options.target);
    return writeFunctionAsm(fn);
}

/** Session::addSource's front half: parse, bind profile arguments. */
Program
fromSource(const std::string &source, const std::vector<int64_t> &args)
{
    Program program = Session::frontend(source);
    if (!args.empty())
        program.defaultArgs = args;
    return program;
}

TEST(OptimizerReference, Synth64)
{
    Workload w = synthFormationWorkload(64);
    Program program = fromSource(w.source, w.args);
    CheckedOptimizer optimize;
    prepare(program, w.args, "synth64", optimize);
    expectRecorded("synth64", compile(program, Pipeline::IUPO_fused,
                                      "synth64", optimize));
    EXPECT_GE(optimize.states, 3u);
}

TEST(OptimizerReference, TableKernels)
{
    CheckedOptimizer optimize;
    size_t units = 0;
    for (const Workload &w : microbenchmarks()) {
        Program prepared = buildWorkload(w);
        prepare(prepared, {}, w.name, optimize);
        for (Pipeline p : {Pipeline::BB, Pipeline::IUPO_fused}) {
            const std::string unit = w.name + "/" + pipelineName(p);
            Program program = prepared.clone();
            expectRecorded(unit, compile(program, p, unit, optimize));
            ++units;
        }
    }
    EXPECT_EQ(units, 48u);
    EXPECT_GE(optimize.states, 24u * 4);
}

TEST(OptimizerReference, GeneratedBenchSeeds)
{
    GeneratorShape shape;
    ASSERT_TRUE(namedShape("bench", &shape));
    CheckedOptimizer optimize;
    for (uint64_t seed = 1; seed <= 200; ++seed) {
        GeneratedProgram g = generateTinyC(seed, shape);
        const std::string unit = "gen_" + std::to_string(seed);
        Program program = fromSource(g.source, g.args);
        prepare(program, g.args, unit, optimize);
        expectRecorded(unit, compile(program, Pipeline::IUPO_fused, unit,
                                     optimize));
    }
    EXPECT_GE(optimize.states, 200u * 3);
}

} // namespace
} // namespace chf
