/**
 * @file
 * A unit's time budget in the compile pipeline (DESIGN.md §12).
 *
 * A CancellationToken holds an optional steady_clock deadline. Session
 * publishes one per unit through a CancellationScope, with the deadline
 * now + unitTimeoutMs when the unit starts, and that is the only way it
 * reaches the pipeline: runPhase polls CancellationToken::current() on
 * entry to every phase (including each formation seed), expandBlock
 * reads it once and polls it every merge round, and the stall fault
 * polls it in its sleep loop. A passed deadline surfaces as a
 * CancelledError (a RecoverableError), which keep-going runPhase calls
 * roll back and rethrow, and the Session turns into a `timeout`
 * diagnostic with the unit marked degraded. Every poll site sits at a
 * point where the function IR is structurally consistent, so in
 * keep-going mode the rollback contract of DESIGN.md §7 holds
 * unchanged.
 *
 * A poll reads the clock only when the token has a deadline. The
 * default token has none and never cancels, so with no time budget
 * configured every poll is one untaken branch.
 */

#ifndef CHF_SUPPORT_CANCELLATION_H
#define CHF_SUPPORT_CANCELLATION_H

#include <chrono>
#include <optional>

#include "support/diagnostics.h"

namespace chf {

/**
 * The pipeline-side failure a passed deadline raises. Derives from
 * RecoverableError so it is a rollback-safe failure, but runPhase
 * rethrows it after restoring its snapshot (instead of swallowing it)
 * so a timeout aborts the whole unit, not just one phase. The carried
 * Diagnostic is fixed (`timeout: unit exceeded its time budget`), so
 * timed-out units produce byte-stable diagnostic streams regardless of
 * where in the pipeline the poll happened to fire.
 */
class CancelledError : public RecoverableError
{
  public:
    CancelledError();
};

/** A unit's deadline; default-constructed tokens never cancel. */
class CancellationToken
{
  public:
    using Clock = std::chrono::steady_clock;

    CancellationToken() = default;

    /** A token that cancels once @p when has passed. */
    explicit CancellationToken(Clock::time_point when) : deadline(when) {}

    /** True once the deadline has passed (never without one). */
    bool
    cancelled() const
    {
        return deadline && Clock::now() >= *deadline;
    }

    /** Poll point: throw CancelledError once the deadline has passed. */
    void
    throwIfCancelled() const
    {
        if (cancelled())
            throw CancelledError();
    }

    /**
     * Token published for the current thread by the innermost
     * CancellationScope (a token with no deadline outside any scope).
     * Every poll site — runPhase, expandBlock, the stall fault's sleep
     * loop — observes its unit's budget through this.
     */
    static CancellationToken current();

  private:
    std::optional<Clock::time_point> deadline;
};

/**
 * RAII: publish @p token as CancellationToken::current() for this
 * thread. Session establishes one scope around each unit.
 */
class CancellationScope
{
  public:
    explicit CancellationScope(CancellationToken token);
    ~CancellationScope();

    CancellationScope(const CancellationScope &) = delete;
    CancellationScope &operator=(const CancellationScope &) = delete;

  private:
    CancellationToken previous;
};

} // namespace chf

#endif // CHF_SUPPORT_CANCELLATION_H
