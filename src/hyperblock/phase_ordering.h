/**
 * @file
 * The compiler pipelines compared in the paper's evaluation.
 *
 * Naming follows Table 1: U = (while-)loop unrolling, P = peeling,
 * I = incremental if-conversion (hyperblock formation under the TRIPS
 * constraints), O = scalar optimizations. Parentheses mean the phases
 * are merged into the convergent algorithm:
 *
 *  - BB:      basic blocks as TRIPS blocks (baseline).
 *  - UPIO:    CFG-level unroll/peel first (sizes estimated on
 *             unpredicated code), then formation without head
 *             duplication, then one scalar-optimization pass.
 *  - IUPO:    formation first, then discrete unroll/peel driven by the
 *             now-accurate hyperblock sizes, then optimization.
 *  - (IUP)O:  fully convergent formation with head duplication, scalar
 *             optimizations once at the end.
 *  - (IUPO):  fully convergent with optimization inside the merge loop.
 *
 * All pipelines assume the front end already ran (inlining, for-loop
 * unrolling, CFG simplification, scalar optimization, profiling); use
 * prepareProgram() for that, or let a Session unit do it
 * (Session::addLowered).
 */

#ifndef CHF_HYPERBLOCK_PHASE_ORDERING_H
#define CHF_HYPERBLOCK_PHASE_ORDERING_H

#include <string>
#include <vector>

#include "analysis/profile.h"
#include "hyperblock/convergent.h"
#include "ir/program.h"
#include "support/diagnostics.h"

namespace chf {

/** Hyperblock-formation pipeline selector. */
enum class Pipeline
{
    BB,
    UPIO,
    IUPO,
    IUP_O,      ///< (IUP)O
    IUPO_fused, ///< (IUPO)
};

const char *pipelineName(Pipeline pipeline);

/** Block-selection heuristic selector (Table 2). */
enum class PolicyKind
{
    BreadthFirst,
    DepthFirst,
    Vliw,           ///< path-based, scalar opts once at the end
    VliwConvergent, ///< path-based with iterative optimization
};

const char *policyKindName(PolicyKind kind);

/** Full compilation configuration. */
struct CompileOptions
{
    Pipeline pipeline = Pipeline::IUPO_fused;
    PolicyKind policy = PolicyKind::BreadthFirst;

    /** Target description (target/target_model.h): block format, LSQ
     *  and bank geometry, register file, spill-headroom policy. The
     *  default is the TRIPS reference model. */
    TargetModel target;

    /** Run output normalization, register allocation, and fanout. */
    bool runBackend = true;

    /** Enable basic-block splitting during formation (paper §9). */
    bool blockSplitting = false;

    /**
     * Keep-going mode when non-null: each destructive phase (unroll,
     * peel, formation, regalloc, fanout, schedule) runs under runPhase's
     * snapshot/verify guard. A phase that throws RecoverableError or
     * fails the verifier is rolled back bit-identically and recorded
     * here, and compilation continues with the degraded pipeline. Null
     * (the default) is strict mode: the same phase bodies run with no
     * snapshots and no fault hooks, and verifyOrDie checks every stage.
     * The unit's deadline and fault reach the pipeline through the
     * thread's CancellationScope and FaultScope (DESIGN.md §12), not
     * through these options.
     */
    DiagnosticEngine *diags = nullptr;
};

/**
 * Outcome counters of one unit's pipeline run (detail::compileUnit):
 * the m/t/u/p statistics plus backend numbers. Callers see them
 * through chf::Session (pipeline/session.h), whose SessionResult holds
 * one FunctionResult per compilation unit.
 */
struct CompileResult
{
    StatSet stats;

    /** Phases rolled back in keep-going mode (empty on a clean run). */
    std::vector<std::string> failedPhases;

    bool degraded() const { return !failedPhases.empty(); }
};

/**
 * Front-end preparation shared by every pipeline: CFG simplification,
 * scalar optimization, profiling, for-loop unrolling (using the
 * profile, like Scale's use of prior compilations), re-simplification
 * and re-profiling. Leaves @p program in the "BB" baseline state and
 * returns the profile.
 *
 * With @p diags and @p keep_going set, the for-loop unroll runs as a
 * keep-going "unroll" phase (runPhase): on failure it is rolled back
 * and recorded, and the unprepared-but-correct CFG proceeds. Otherwise
 * it runs strict and verifyOrDie checks the result.
 */
ProfileData prepareProgram(Program &program,
                           const std::vector<int64_t> &args = {},
                           bool for_loop_unroll = true,
                           DiagnosticEngine *diags = nullptr,
                           bool keep_going = false);

namespace detail {

/**
 * The phase pipeline for one compilation unit (formation → regalloc →
 * fanout → schedule), each phase one runPhase call. Session workers
 * call this once per unit, inside the unit's CancellationScope and
 * FaultScope; it touches nothing but @p program, @p options.diags, and
 * those thread-local scopes, so concurrent calls on distinct programs
 * are safe.
 */
CompileResult compileUnit(Program &program, const ProfileData &profile,
                          const CompileOptions &options);

} // namespace detail

} // namespace chf

#endif // CHF_HYPERBLOCK_PHASE_ORDERING_H
