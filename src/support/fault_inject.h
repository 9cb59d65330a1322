/**
 * @file
 * Deterministic fault injection for the transactional pass pipeline.
 *
 * A FaultInjector is armed with one FaultSpec naming a guarded phase,
 * an occurrence index, and a fault kind. runPhase (pipeline/pass_guard)
 * is the only hook site in the pipeline: in keep-going mode it calls
 * faultInjectionPoint(phase, fn) once per phase run, after the body;
 * strict mode calls no hook, so an armed fault never fires there. When
 * the armed spec matches the phase and the occurrence counter, the
 * injector either corrupts the IR (a corruption the verifier is
 * guaranteed to catch) or throws RecoverableError, and runPhase rolls
 * the function back to its snapshot, proving the recovery path end to
 * end.
 *
 * Spec grammar (flag --fault=... / env CHF_FAULT=...):
 *
 *   phase:<name>,fn:<n>,kind:<corrupt-ir|throw|stall:<ms>|transient[:<k>]>
 *
 * where <name> is one of the guarded phase names (unroll, peel,
 * formation, formation-seed, fanout, regalloc, schedule, or "any"),
 * fn:<n> selects where the fault fires, and kind selects the fault.
 * "occ" is accepted as an alias for "fn". Fields may appear in any
 * order; phase defaults to "any", fn to 0, kind to throw.
 *
 * Two kinds exercise the service-hardening layer (DESIGN.md §12):
 *
 *  - stall:<ms> sleeps up to <ms> milliseconds inside the phase,
 *    polling CancellationToken::current() in small slices — a unit
 *    timeout trips the token and the stall aborts promptly with
 *    CancelledError, proving the watchdog path; without a deadline it
 *    just sleeps the full budget and the compile succeeds.
 *  - transient[:<k>] throws RecoverableError, but only on the first
 *    <k> attempts (default 1) of the unit as published by
 *    FaultAttemptScope — a session with retry enabled recovers on the
 *    next attempt, proving the retry path. Unlike the other kinds,
 *    transient may fire once per *attempt* (up to <k> times per arm),
 *    so bounded-retry exhaustion is testable with k > retry count.
 *
 * Matching is thread-safe and deterministic under parallel sessions.
 * Inside a Session each worker publishes the index of the unit it is
 * compiling through FaultUnitScope, and fn:<n> selects *unit index n*:
 * the fault fires at the first hook matching the phase inside unit n,
 * on whichever thread compiles it, and nowhere else — so a spec fires
 * exactly once at any thread count. Outside a session (a transform
 * driven directly, e.g. formHyperblocks in a test) the historical
 * counter semantics apply: fn:<n> is the n-th (0-based) matching hook
 * firing on this arm. Either way a spec fires at most once per arm().
 */

#ifndef CHF_SUPPORT_FAULT_INJECT_H
#define CHF_SUPPORT_FAULT_INJECT_H

#include <mutex>
#include <string>

#include "ir/function.h"

namespace chf {

/** What to inject, where. */
struct FaultSpec
{
    enum class Kind : uint8_t
    {
        CorruptIr, ///< mutate the IR so verify() must fail
        Throw,     ///< throw RecoverableError from the hook
        Stall,     ///< sleep stallMs inside the phase (cancellable)
        Transient, ///< throw, but only on the first transientFailures
                   ///< attempts (exercises Session retry)
    };

    /** Guarded phase name; empty matches any phase. */
    std::string phase;

    /** Fire on the n-th (0-based) hook call matching @p phase. */
    int occurrence = 0;

    Kind kind = Kind::Throw;

    /** Sleep budget for Kind::Stall, milliseconds. */
    int stallMs = 0;

    /** Attempts that fail for Kind::Transient (attempt >= k succeeds). */
    int transientFailures = 1;
};

/**
 * Parse the "phase:P,fn:N,kind:K" grammar. Returns true on success;
 * on failure fills @p err and leaves @p out untouched.
 */
bool parseFaultSpec(const std::string &text, FaultSpec *out,
                    std::string *err);

/**
 * Process-wide injector. All entry points are mutex-protected so
 * parallel session workers can share the one instance; the armed spec
 * still fires at most once per arm() regardless of thread count.
 */
class FaultInjector
{
  public:
    /** The instance; parses CHF_FAULT from the environment once. */
    static FaultInjector &instance();

    /** Arm @p spec and reset the occurrence/fired counters. */
    void arm(const FaultSpec &spec);

    /** Disarm and reset counters. */
    void disarm();

    bool armed() const;

    /** Times a fault actually fired since the last arm(). */
    size_t firedCount() const;

    /** "phase#occurrence" of the last fault fired ("" if none). */
    std::string lastSite() const;

    /**
     * Hook point called once per keep-going phase run (by runPhase).
     * May corrupt @p fn in place or throw RecoverableError.
     */
    void hook(const char *phase, Function &fn);

  private:
    FaultInjector();

    mutable std::mutex mutex;
    bool isArmed = false;
    FaultSpec spec;
    int seen = 0;
    size_t fired = 0;
    int lastTransientAttempt = -1; ///< attempt Transient last fired on
    std::string lastFiredSite;
};

/**
 * RAII: tells the fault injector which retry attempt (0-based) of a
 * unit the current thread is running, so Kind::Transient can fail the
 * first k attempts and succeed afterwards. Session establishes one
 * scope per attempt; outside any scope the attempt is 0.
 */
class FaultAttemptScope
{
  public:
    explicit FaultAttemptScope(int attempt);
    ~FaultAttemptScope();

    FaultAttemptScope(const FaultAttemptScope &) = delete;
    FaultAttemptScope &operator=(const FaultAttemptScope &) = delete;

    /** Attempt published by the innermost scope (0 if none). */
    static int current();

  private:
    int previous;
};

/**
 * RAII: tells the fault injector which session unit the current thread
 * is compiling, making fn:<n> matching deterministic under any thread
 * count. Session establishes one scope around each unit's pipeline.
 */
class FaultUnitScope
{
  public:
    explicit FaultUnitScope(int unit_index);
    ~FaultUnitScope();

    FaultUnitScope(const FaultUnitScope &) = delete;
    FaultUnitScope &operator=(const FaultUnitScope &) = delete;

    /** Unit index published by the innermost scope (-1 if none). */
    static int current();

  private:
    int previous;
};

/** Convenience wrapper used at the hook point. */
inline void
faultInjectionPoint(const char *phase, Function &fn)
{
    FaultInjector &injector = FaultInjector::instance();
    if (injector.armed())
        injector.hook(phase, fn);
}

} // namespace chf

#endif // CHF_SUPPORT_FAULT_INJECT_H
