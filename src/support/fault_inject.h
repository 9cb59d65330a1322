/**
 * @file
 * Deterministic fault injection for the transactional pass pipeline.
 *
 * A FaultScope arms one FaultSpec for the code its thread runs while
 * the scope lives. runPhase (pipeline/pass_guard) is the only hook
 * site in the pipeline: in keep-going mode it calls
 * faultInjectionPoint(phase, fn) once per phase run, after the body;
 * strict mode calls no hook, so an armed fault never fires there. When
 * the innermost scope's spec matches the phase and the scope's unit,
 * the hook corrupts the IR (a corruption the verifier is guaranteed to
 * catch), throws RecoverableError, or stalls, and runPhase rolls the
 * function back to its snapshot, proving the recovery path end to end.
 *
 * Spec grammar (flag --fault=..., request field "fault"):
 *
 *   phase:<name>,fn:<n>,kind:<corrupt-ir|throw|stall:<ms>>
 *
 * where <name> is one of the guarded phase names (unroll, peel,
 * formation, formation-seed, fanout, regalloc, schedule, or "any"),
 * fn:<n> names the unit index the fault fires in, and kind selects the
 * fault. Any other phase name is rejected, and <n> and <ms> must be
 * integers in [0, INT_MAX]. Fields may appear in any order; phase
 * defaults to "any", fn to 0, kind to throw.
 *
 * stall:<ms> sleeps up to <ms> milliseconds inside the phase, polling
 * CancellationToken::current() in 1 ms slices: a unit's time budget
 * aborts the stall promptly with CancelledError (DESIGN.md §12);
 * without one it sleeps the full budget and the compile succeeds.
 *
 * Matching is deterministic at any thread count. Session opens one
 * scope per unit, with the unit's index, on whichever thread compiles
 * it, so a spec fires at the first matching hook of unit fn:<n> and
 * nowhere else. Code run outside a Session (prepareProgram, or a
 * transform driven directly) is unit 0 of the scope its caller opens.
 * A scope fires at most once, and belongs to the thread that opened
 * it, so matching takes no lock.
 */

#ifndef CHF_SUPPORT_FAULT_INJECT_H
#define CHF_SUPPORT_FAULT_INJECT_H

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
    };

    /** Guarded phase name; empty matches any phase. */
    std::string phase;

    /** Unit index the fault fires in (fn:<n>). */
    int unit = 0;

    Kind kind = Kind::Throw;

    /** Sleep budget for Kind::Stall, milliseconds. */
    int stallMs = 0;
};

/**
 * Parse the "phase:P,fn:N,kind:K" grammar. Returns true on success;
 * on failure fills @p err and leaves @p out untouched.
 */
bool parseFaultSpec(const std::string &text, FaultSpec *out,
                    std::string *err);

/**
 * RAII: arm @p spec (null arms nothing) for the hooks this thread runs
 * as unit @p unit while the scope lives; the innermost scope wins.
 * @p spec must outlive the scope.
 */
class FaultScope
{
  public:
    explicit FaultScope(const FaultSpec *spec, int unit = 0);
    ~FaultScope();

    FaultScope(const FaultScope &) = delete;
    FaultScope &operator=(const FaultScope &) = delete;

    /** True once this scope's fault has fired. */
    bool fired() const { return hasFired; }

  private:
    friend void faultInjectionPoint(const char *phase, Function &fn);

    const FaultSpec *spec;
    int unit;
    bool hasFired = false;
    FaultScope *previous;
};

/**
 * Hook point called once per keep-going phase run (by runPhase). Fires
 * the innermost scope's fault if it matches @p phase and has not fired:
 * may corrupt @p fn in place, throw RecoverableError, or stall. With a
 * fault armed, panics if @p phase is not one of the names
 * parseFaultSpec accepts.
 */
void faultInjectionPoint(const char *phase, Function &fn);

} // namespace chf

#endif // CHF_SUPPORT_FAULT_INJECT_H
