#include "pipeline/pass_guard.h"

#include "analysis/analysis_manager.h"
#include "ir/verifier.h"
#include "support/cancellation.h"
#include "support/fault_inject.h"

namespace chf {

bool
runPhase(Function &fn, const char *phase, DiagnosticEngine *diags,
         const std::function<void()> &body, AnalysisManager *analyses)
{
    CancellationToken::current().throwIfCancelled();
    if (diags == nullptr) {
        body();
        return true;
    }

    Function snapshot = fn.clone();
    auto roll_back = [&] {
        fn = std::move(snapshot);
        if (analyses != nullptr)
            analyses->invalidateAll();
    };
    bool failed = false;
    try {
        body();
        faultInjectionPoint(phase, fn);
        for (const std::string &problem : verify(fn)) {
            Diagnostic d =
                Diagnostic::error(phase, concat("verifier: ", problem));
            d.function = fn.name();
            diags->report(std::move(d));
            failed = true;
        }
    } catch (const CancelledError &) {
        // A timeout aborts the whole unit, not just this phase: roll
        // the function back to a consistent state (so keep-going units
        // degrade cleanly) and rethrow for the Session-level handler,
        // which records the single deterministic timeout diagnostic.
        // No per-phase diagnostic here — which phase the poll happened
        // to land in is schedule-dependent.
        roll_back();
        throw;
    } catch (const RecoverableError &e) {
        Diagnostic d = e.diagnostic();
        if (d.phase.empty())
            d.phase = phase;
        if (d.function.empty())
            d.function = fn.name();
        diags->report(std::move(d));
        failed = true;
    }

    if (!failed)
        return true;

    roll_back();
    Diagnostic rollback = Diagnostic::error(
        phase, concat("rolled back '", phase, "' for fn '", fn.name(),
                      "'; continuing with degraded pipeline"));
    rollback.severity = Severity::Note;
    rollback.function = fn.name();
    diags->report(std::move(rollback));
    return false;
}

} // namespace chf
