#include "hyperblock/phase_ordering.h"

#include <algorithm>
#include <optional>

#include "analysis/loops.h"
#include "backend/fanout.h"
#include "backend/regalloc.h"
#include "hyperblock/vliw_policy.h"
#include "ir/verifier.h"
#include "pipeline/pass_guard.h"
#include "pipeline/session.h"
#include "sim/functional_sim.h"
#include "support/fatal.h"
#include "support/timer.h"
#include "transform/cfg_utils.h"
#include "transform/for_loop_unroll.h"
#include "transform/head_duplicate.h"
#include "transform/normalize_outputs.h"
#include "transform/optimize.h"
#include "transform/reverse_if_convert.h"
#include "transform/simplify_cfg.h"

namespace chf {

const char *
pipelineName(Pipeline pipeline)
{
    switch (pipeline) {
      case Pipeline::BB: return "BB";
      case Pipeline::UPIO: return "UPIO";
      case Pipeline::IUPO: return "IUPO";
      case Pipeline::IUP_O: return "(IUP)O";
      case Pipeline::IUPO_fused: return "(IUPO)";
    }
    return "?";
}

const char *
policyKindName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::BreadthFirst: return "BF";
      case PolicyKind::DepthFirst: return "DF";
      case PolicyKind::Vliw: return "VLIW";
      case PolicyKind::VliwConvergent: return "ConvVLIW";
    }
    return "?";
}

ProfileData
prepareProgram(Program &program, const std::vector<int64_t> &args,
               bool for_loop_unroll, DiagnosticEngine *diags,
               bool keep_going)
{
    simplifyCfg(program.fn);
    optimizeFunction(program.fn);
    simplifyCfg(program.fn);
    verifyOrDie(program.fn, "frontend cleanup");

    ProfileData profile = profileProgram(program, args);

    if (for_loop_unroll) {
        DiagnosticEngine *guard = keep_going ? diags : nullptr;
        size_t unrolled = 0;
        bool ok = runPhase(program.fn, "unroll", guard, [&] {
            unrolled = unrollForLoops(program.fn, profile);
            if (unrolled > 0) {
                simplifyCfg(program.fn);
                optimizeFunction(program.fn);
            }
        });
        if (ok && unrolled > 0) {
            if (!guard)
                verifyOrDie(program.fn, "for-loop unrolling");
            profile = profileProgram(program, args);
        }
    }
    return profile;
}

namespace {

std::unique_ptr<Policy>
makePolicy(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::BreadthFirst:
        return std::make_unique<BreadthFirstPolicy>();
      case PolicyKind::DepthFirst:
        return std::make_unique<DepthFirstPolicy>();
      case PolicyKind::Vliw:
      case PolicyKind::VliwConvergent:
        return std::make_unique<VliwPolicy>();
    }
    panic("unknown policy kind");
}

/**
 * UPIO's discrete unroll/peel: runs on the unpredicated CFG, choosing
 * factors from raw block sizes -- the inaccurate estimate that
 * motivates if-converting first (paper §7.1).
 */
StatSet
discreteCfgUnrollPeel(Function &fn, const ProfileData &profile,
                      const TargetModel &target)
{
    StatSet stats;
    // Loop headers are stable identifiers even as we restructure, but
    // LoopInfo itself goes stale after each transformation, so collect
    // one loop at a time.
    std::vector<BlockId> done;
    bool progress = true;
    while (progress) {
        progress = false;
        LoopInfo loops(fn);
        for (const Loop &loop : loops.loops()) {
            if (std::find(done.begin(), done.end(), loop.header) !=
                done.end()) {
                continue;
            }
            done.push_back(loop.header);

            size_t body_size = 0;
            for (BlockId b : loop.blocks)
                body_size += fn.block(b)->size();
            double mean = profile.trips.meanTrips(loop.header);

            if (mean > 0.0 && mean <= 3.5) {
                // Low-trip loop: peel the median iteration count.
                int k = static_cast<int>(
                    profile.trips.tripQuantile(loop.header, 0.5));
                k = std::clamp(k, 0, 3);
                if (k > 0 && body_size * k <= target.maxInsts) {
                    stats.add("peeledIterations",
                              static_cast<int64_t>(
                                  cfgPeelLoop(fn, loop, k)));
                }
            } else if (mean >= 4.0) {
                // Hot loop: unroll to fill a block. The factor is
                // computed before if-conversion, so the unroller must
                // *guess* how much if-conversion and scalar
                // optimization will compact the body; like classical
                // unrollers it assumes substantial cross-iteration
                // compaction and over-commits -- the inaccuracy that
                // makes this ordering worst in the paper (S3).
                int f = static_cast<int>(
                    2 * target.maxInsts /
                    std::max<size_t>(body_size, 1));
                f = std::clamp(f, 1, 6);
                if (f >= 2) {
                    stats.add("unrolledIterations",
                              static_cast<int64_t>(
                                  cfgUnrollLoop(fn, loop, f)));
                }
            }
            progress = true;
            break; // loop info is stale; rebuild
        }
    }
    fn.removeUnreachable();
    return stats;
}

/**
 * IUPO's discrete unroll/peel: runs after formation, using the merge
 * engine so the factors respect the *measured* hyperblock sizes, but
 * without iterative optimization.
 */
StatSet
discreteMergeUnrollPeel(Function &fn, const ProfileData &profile,
                        const MergeOptions &base_options,
                        DiagnosticEngine *diags,
                        std::vector<std::string> &failed_phases)
{
    MergeOptions options = base_options;
    options.enableHeadDuplication = true;
    options.optimizeDuringMerge = false;
    MergeEngine engine(fn, options);

    // Unroll self-loop hyperblocks until the constraints say stop.
    auto unroll_body = [&] {
        for (BlockId id : fn.blockIds()) {
            if (!fn.block(id))
                continue;
            if (!branchesTo(*fn.block(id), id).empty())
                unrollLoopMerge(engine, id, 4);
        }
    };

    // Peel low-trip-count loops into their predecessors. The engine's
    // analysis cache is already current after the unroll merges.
    auto peel_body = [&] {
        std::vector<BlockId> headers;
        for (const Loop &loop : engine.analyses().loops().loops())
            headers.push_back(loop.header);
        for (BlockId header : headers) {
            double mean = profile.trips.meanTrips(header);
            if (mean > 0.0 && mean <= 3.5) {
                size_t k = profile.trips.tripQuantile(header, 0.5);
                peelLoopMerge(engine, header, std::min<size_t>(k, 3));
            }
        }
    };

    // Unroll and peel are separate phases, so a rolled-back one still
    // leaves the other's work in place.
    if (!runPhase(fn, "unroll", diags, unroll_body, &engine.analyses()))
        failed_phases.push_back("unroll");
    if (!runPhase(fn, "peel", diags, peel_body, &engine.analyses()))
        failed_phases.push_back("peel");

    StatSet stats = engine.stats();
    stats.merge(engine.analyses().stats());
    return stats;
}

} // namespace

void
detail::compileUnit(Program &program, const ProfileData &profile,
                    const SessionOptions &options, DiagnosticEngine *diags,
                    FunctionResult &result)
{
    Function &fn = program.fn;
    Timer total_timer;

    MergeOptions merge;
    merge.target = options.target;
    merge.sizeHeadroom = options.target.spillHeadroom;
    merge.enableHeadDuplication =
        options.pipeline == Pipeline::IUP_O ||
        options.pipeline == Pipeline::IUPO_fused;
    merge.optimizeDuringMerge =
        options.pipeline == Pipeline::IUPO_fused &&
        options.policy != PolicyKind::Vliw;
    merge.enableBlockSplitting = options.blockSplitting;

    FormationOptions formation;
    formation.merge = merge;
    formation.diags = diags;

    // Every destructive phase runs through runPhase: a null diags (strict
    // mode) runs the body bare, keep-going mode snapshots, verifies and
    // rolls back (DESIGN.md §7). Rolled-back phases are recorded.
    auto phase = [&](const char *name,
                     const std::function<void()> &body) -> bool {
        bool ok = runPhase(fn, name, diags, body);
        if (!ok)
            result.failedPhases.push_back(name);
        return ok;
    };
    const bool strict = diags == nullptr;

    std::unique_ptr<Policy> policy = makePolicy(options.policy);

    // The formation stage shared by every non-BB pipeline: one phase
    // (on top of the engine's own per-seed phases), so a failure
    // degrades to the pre-formation CFG; stats are merged only if the
    // stage survives.
    auto formation_stage = [&] {
        ScopedStatTimer t(result.stats, "usFormation");
        StatSet formed;
        if (phase("formation", [&] {
                formed = formHyperblocks(fn, *policy, formation).stats;
            })) {
            result.stats.merge(formed);
        }
    };

    switch (options.pipeline) {
      case Pipeline::BB:
        break;
      case Pipeline::UPIO: {
        {
            ScopedStatTimer t(result.stats, "usUnrollPeel");
            StatSet up;
            if (phase("unroll", [&] {
                    up = discreteCfgUnrollPeel(fn, profile, options.target);
                })) {
                result.stats.merge(up);
            }
        }
        if (strict)
            verifyOrDie(fn, "UPIO unroll/peel");
        formation_stage();
        ScopedStatTimer t(result.stats, "usScalarOpt");
        optimizeFunction(fn);
        break;
      }
      case Pipeline::IUPO: {
        formation_stage();
        {
            // The discrete unroller now sees accurate hyperblock sizes.
            ScopedStatTimer t(result.stats, "usUnrollPeel");
            result.stats.merge(discreteMergeUnrollPeel(
                fn, profile, merge, diags, result.failedPhases));
        }
        ScopedStatTimer t(result.stats, "usScalarOpt");
        optimizeFunction(fn);
        break;
      }
      case Pipeline::IUP_O:
      case Pipeline::IUPO_fused: {
        formation_stage();
        ScopedStatTimer t(result.stats, "usScalarOpt");
        optimizeFunction(fn);
        break;
      }
    }

    if (strict)
        verifyOrDie(fn, "hyperblock formation");

    if (options.runBackend) {
        ScopedStatTimer t(result.stats, "usBackend");
        // The function snapshot does not cover the spill region
        // regalloc allocates, so keep-going mode restores memory too.
        std::optional<MemoryImage> memory;
        if (!strict)
            memory = program.memory;
        size_t null_writes = 0;
        RegAllocResult alloc;
        if (phase("regalloc", [&] {
                null_writes = normalizeOutputsFunction(fn);
                // The normalization's truth materializations and OR
                // chains duplicate value numbers already present in the
                // block; clean them up before allocation.
                optimizeFunction(fn);
                RegAllocOptions ra;
                ra.target = options.target;
                ra.numPhysRegs = options.target.numPhysRegs;
                alloc = allocateRegisters(program, ra);
            })) {
            result.stats.set("nullWriteInsts",
                             static_cast<int64_t>(null_writes));
            result.stats.set("spilledValues",
                             static_cast<int64_t>(alloc.spilledValues));
            result.stats.set("blocksSplit",
                             static_cast<int64_t>(alloc.blocksSplit));
        } else if (memory) {
            program.memory = std::move(*memory);
        }
        size_t moves = 0;
        if (phase("fanout", [&] { moves = insertFanoutFunction(fn); })) {
            result.stats.set("fanoutMoves", static_cast<int64_t>(moves));
        }
        // Size estimates can drift (post-formation optimization changes
        // fanout demand); reverse if-conversion splits any block the
        // later phases pushed past the ISA limits (paper §6). The phase
        // keeps the name fault specs use; block placement belongs to
        // the timing simulator, and the assembly does not depend on it.
        size_t late_split = 0;
        if (phase("schedule", [&] {
                late_split = splitOversizedBlocks(fn, options.target);
            })) {
            result.stats.add("blocksSplit",
                             static_cast<int64_t>(late_split));
        }
        if (strict)
            verifyOrDie(fn, "backend");
    }

    result.stats.set("finalBlocks",
                     static_cast<int64_t>(fn.numBlocks()));
    result.stats.set("finalInsts",
                     static_cast<int64_t>(fn.totalInsts()));
    result.stats.set("usCompileTotal", total_timer.elapsedMicros());
}

} // namespace chf
