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

struct FunctionResult;
struct SessionOptions;

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
 * fanout → schedule), each phase one runPhase call, configured by the
 * unit's @p options (pipeline, policy, target, runBackend,
 * blockSplitting). A non-null @p diags is keep-going mode: a phase
 * that throws RecoverableError or fails the verifier is rolled back
 * bit-identically, reported to @p diags and appended to
 * @p result.failedPhases, and compilation continues. A null @p diags
 * is strict mode: the same phase bodies run with no snapshots and no
 * fault hooks, and verifyOrDie checks every stage. Counters are added
 * to @p result.stats.
 *
 * Session workers call this once per unit, inside the unit's
 * CancellationScope and FaultScope (DESIGN.md §12); it touches nothing
 * but @p program, @p diags, @p result and those thread-local scopes,
 * so concurrent calls on distinct programs are safe.
 */
void compileUnit(Program &program, const ProfileData &profile,
                 const SessionOptions &options, DiagnosticEngine *diags,
                 FunctionResult &result);

} // namespace detail

} // namespace chf

#endif // CHF_HYPERBLOCK_PHASE_ORDERING_H
