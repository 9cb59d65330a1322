/**
 * @file
 * Cooperative cancellation with deadline support for the compile
 * pipeline (DESIGN.md §12).
 *
 * A CancellationSource owns a trip flag; CancellationTokens are cheap
 * shared handles to it. Session publishes each unit attempt's token
 * through a CancellationScope, and that is the only way it reaches the
 * pipeline: runPhase polls CancellationToken::current() on entry to
 * every phase (including each formation seed), expandBlock reads it
 * once and polls it every merge round, and the stall fault polls it in
 * its sleep loop. A tripped token surfaces as a CancelledError (a
 * RecoverableError), which keep-going runPhase calls roll back and
 * rethrow, and the Session turns into a `timeout` / `deadline` /
 * `cancelled` diagnostic with the unit marked degraded. Every poll
 * site sits at a point where the function IR is structurally
 * consistent, so in keep-going mode the rollback contract of DESIGN.md
 * §7 holds unchanged.
 *
 * The hot-path cost of a poll is one relaxed null check plus one
 * acquire load; *time* is never read on the polling threads. Instead a
 * DeadlineWatchdog thread (owned by Session, started only when a
 * deadline or unit timeout is configured) sleeps until the earliest
 * registered deadline and trips the corresponding sources. With no
 * deadlines configured no watchdog thread exists, tokens are null, and
 * every poll degenerates to an untaken branch.
 */

#ifndef CHF_SUPPORT_CANCELLATION_H
#define CHF_SUPPORT_CANCELLATION_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "support/diagnostics.h"

namespace chf {

/** Why a token tripped (doubles as the diagnostic phase name). */
enum class CancelKind : uint8_t
{
    Cancelled, ///< explicit cancel() — shutdown, shed, user abort
    Timeout,   ///< per-unit attempt budget expired
    Deadline,  ///< whole-session deadline expired
};

/** "cancelled" / "timeout" / "deadline". */
const char *cancelKindName(CancelKind kind);

namespace cancel_detail {

/** Shared trip state. Writers publish kind before the flag. */
struct State
{
    std::atomic<uint8_t> kind{0};
    std::atomic<bool> tripped{false};

    void
    trip(CancelKind k)
    {
        kind.store(static_cast<uint8_t>(k), std::memory_order_relaxed);
        tripped.store(true, std::memory_order_release);
    }
};

} // namespace cancel_detail

/**
 * The pipeline-side failure a tripped token raises. Derives from
 * RecoverableError so it is a rollback-safe failure, but runPhase
 * rethrows it after restoring its snapshot (instead of swallowing it)
 * so cancellation aborts the whole unit, not just one phase. The
 * carried Diagnostic is deterministic — fixed phase and message per
 * kind — so cancelled units produce byte-stable diagnostic streams
 * regardless of where in the pipeline the poll happened to fire.
 */
class CancelledError : public RecoverableError
{
  public:
    explicit CancelledError(CancelKind kind);

    CancelKind kind() const { return kind_; }

  private:
    CancelKind kind_;
};

/** Cheap shared handle; default-constructed tokens never cancel. */
class CancellationToken
{
  public:
    CancellationToken() = default;

    /** True if bound to a source (a null token never cancels). */
    bool valid() const { return state != nullptr; }

    bool
    cancelled() const
    {
        return state != nullptr &&
               state->tripped.load(std::memory_order_acquire);
    }

    /** Kind the source tripped with (meaningless until cancelled()). */
    CancelKind
    kind() const
    {
        return static_cast<CancelKind>(
            state->kind.load(std::memory_order_relaxed));
    }

    /** Poll point: throw CancelledError if the source tripped. */
    void
    throwIfCancelled() const
    {
        if (cancelled())
            throw CancelledError(kind());
    }

    /**
     * Token published for the current thread by the innermost
     * CancellationScope (a null token outside any scope). Every poll
     * site — runPhase, expandBlock, the stall fault's sleep loop —
     * observes its unit's cancellation through this.
     */
    static CancellationToken current();

  private:
    friend class CancellationSource;
    friend class DeadlineWatchdog;

    explicit CancellationToken(
        std::shared_ptr<cancel_detail::State> s)
        : state(std::move(s))
    {
    }

    std::shared_ptr<cancel_detail::State> state;
};

/** Owns one trip flag; hand out tokens with token(). */
class CancellationSource
{
  public:
    CancellationSource()
        : state(std::make_shared<cancel_detail::State>())
    {
    }

    CancellationToken token() const { return CancellationToken(state); }

    /** Trip the flag; idempotent (the first kind wins for readers that
     *  already observed the flag, but trips never un-happen). */
    void cancel(CancelKind kind = CancelKind::Cancelled)
    {
        state->trip(kind);
    }

    bool
    cancelled() const
    {
        return state->tripped.load(std::memory_order_acquire);
    }

  private:
    friend class DeadlineWatchdog;
    std::shared_ptr<cancel_detail::State> state;
};

/**
 * RAII: publish @p token as CancellationToken::current() for this
 * thread. Session establishes one scope around each unit attempt.
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

/**
 * One background thread that trips cancellation sources when their
 * registered deadline passes. watch() is O(1) amortized; the thread
 * sleeps until the earliest live deadline, so an idle watchdog costs
 * nothing but its stack. Destruction stops and joins the thread;
 * entries never fire afterwards.
 */
class DeadlineWatchdog
{
  public:
    using Clock = std::chrono::steady_clock;

    DeadlineWatchdog();
    ~DeadlineWatchdog();

    DeadlineWatchdog(const DeadlineWatchdog &) = delete;
    DeadlineWatchdog &operator=(const DeadlineWatchdog &) = delete;

    /**
     * Trip @p source with @p kind at @p when unless unwatch()ed first.
     * Returns a handle for unwatch(). The watchdog holds the source's
     * shared state, so the source may be destroyed before the timer
     * fires.
     */
    uint64_t watch(const CancellationSource &source, Clock::time_point when,
                   CancelKind kind);

    /** Remove a pending entry; no-op if it already fired. */
    void unwatch(uint64_t id);

    /** Entries that have fired since construction. */
    size_t trippedCount() const;

  private:
    struct Entry
    {
        uint64_t id;
        Clock::time_point when;
        CancelKind kind;
        std::shared_ptr<cancel_detail::State> state;
    };

    void loop();

    mutable std::mutex mutex;
    std::condition_variable wake;
    std::vector<Entry> entries;
    uint64_t nextId = 1;
    size_t fired = 0;
    bool stopping = false;
    std::thread thread;
};

} // namespace chf

#endif // CHF_SUPPORT_CANCELLATION_H
