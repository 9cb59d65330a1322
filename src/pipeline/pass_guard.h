/**
 * @file
 * runPhase: the one runner for destructive pipeline phases.
 *
 * Every destructive phase (unroll, peel, formation, formation-seed,
 * regalloc, fanout, schedule) has one body, run through runPhase. The
 * DiagnosticEngine argument picks what a failing phase does:
 *
 *  - strict (null): the body just runs. No snapshot, no fault hook,
 *    no verifier; callers keep their verifyOrDie stage checks.
 *  - keep-going (non-null): the function is snapshotted, the body
 *    runs, the fault hook fires, and the verifier checks the result.
 *    A phase that throws RecoverableError or fails the verifier is
 *    rolled back to the snapshot (bit-identical), recorded in the
 *    engine, and runPhase returns false so the caller can continue
 *    with a degraded pipeline for this function.
 *
 * This generalizes the paper's discipline of testing every merge in
 * scratch space and discarding failures (Fig. 5) from a single merge
 * to a whole pipeline phase; see DESIGN.md §7. panic()/CHF_ASSERT
 * still abort: those mark memory-safety invariants for which no
 * rollback is sound.
 */

#ifndef CHF_PIPELINE_PASS_GUARD_H
#define CHF_PIPELINE_PASS_GUARD_H

#include <functional>

#include "ir/function.h"
#include "support/diagnostics.h"

namespace chf {

class AnalysisManager;

/**
 * Run @p body over @p fn as the phase named @p phase.
 *
 * First polls CancellationToken::current() (DESIGN.md §12): between
 * phases the function is consistent, so a unit past its deadline
 * aborts here with CancelledError. With a null @p diags the body runs
 * bare and the result is true.
 *
 * With @p diags, returns true when the body returned and verify(fn) is
 * clean. On failure returns false with @p fn moved back to its
 * pre-phase snapshot, @p analyses (if given) fully invalidated, and an
 * Error plus rollback Note recorded in @p diags. The fault hook fires
 * the thread's FaultScope (support/fault_inject.h) after the body. A
 * CancelledError raised inside the body also restores the snapshot,
 * then propagates.
 */
bool runPhase(Function &fn, const char *phase, DiagnosticEngine *diags,
              const std::function<void()> &body,
              AnalysisManager *analyses = nullptr);

} // namespace chf

#endif // CHF_PIPELINE_PASS_GUARD_H
