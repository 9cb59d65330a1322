#include "pipeline/session.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <thread>
#include <type_traits>

#include "analysis/analysis_manager.h"
#include "frontend/parser.h"
#include "hyperblock/merge.h"
#include "support/cancellation.h"
#include "support/fatal.h"
#include "support/timer.h"

namespace chf {

namespace {

/**
 * One worker's output slot. Workers only ever touch their own slot, so
 * the join can merge slots in unit order and produce the same bytes at
 * any thread count.
 */
struct UnitSlot
{
    CompileResult result;
    DiagnosticEngine diags;
    std::exception_ptr error;
    int attempts = 1;
};

/** Deep copy of a unit's pre-compilation state for bounded retry. */
Program
snapshotProgram(const Program &program)
{
    Program copy;
    copy.fn = program.fn.clone();
    copy.memory = program.memory;
    copy.defaultArgs = program.defaultArgs;
    return copy;
}

} // namespace

// The parallel driver relies on analysis state being per-function and
// per-worker (see analysis_manager.h "Concurrency contract"): a
// worker's cached snapshots must not be copyable into another worker.
static_assert(!std::is_copy_constructible_v<AnalysisManager> &&
                  !std::is_copy_assignable_v<AnalysisManager>,
              "AnalysisManager must stay non-copyable: Session workers "
              "each own their analyses and share no mutable state");

SessionOptions &
SessionOptions::withTarget(const TargetModel &model)
{
    std::string problem = model.validate();
    if (!problem.empty())
        fatal(concat("invalid target model '", model.name, "': ", problem));
    target = model;
    return *this;
}

SessionOptions &
SessionOptions::withTarget(const std::string &name)
{
    const TargetModel *model = findTarget(name);
    if (!model) {
        fatal(concat("unknown target '", name, "' (known targets: ",
                     targetNamesJoined(), ")"));
    }
    target = *model;
    return *this;
}

bool
SessionResult::degraded() const
{
    return degradedCount() > 0;
}

size_t
SessionResult::degradedCount() const
{
    size_t n = 0;
    for (const FunctionResult &fr : functions)
        n += fr.degraded() ? 1 : 0;
    return n;
}

std::vector<std::string>
SessionResult::failedPhases() const
{
    std::vector<std::string> out;
    for (const FunctionResult &fr : functions) {
        for (const std::string &phase : fr.failedPhases)
            out.push_back(fr.name.empty() ? phase
                                          : concat(fr.name, ":", phase));
    }
    return out;
}

size_t
Session::addProgram(Program program, ProfileData profile, std::string name,
                    std::optional<SessionOptions> unit_options)
{
    Unit unit;
    unit.ownedProgram = std::make_unique<Program>(std::move(program));
    unit.ownedProfile = std::make_unique<ProfileData>(std::move(profile));
    unit.name = name.empty() ? unit.ownedProgram->fn.name()
                             : std::move(name);
    unit.overrides = std::move(unit_options);
    units.push_back(std::move(unit));
    return units.size() - 1;
}

size_t
Session::addProgramRef(Program &program, const ProfileData &profile,
                       std::string name,
                       std::optional<SessionOptions> unit_options)
{
    Unit unit;
    unit.externalProgram = &program;
    unit.externalProfile = &profile;
    unit.name = name.empty() ? program.fn.name() : std::move(name);
    unit.overrides = std::move(unit_options);
    units.push_back(std::move(unit));
    return units.size() - 1;
}

size_t
Session::addSource(const std::string &source, std::string name,
                   const std::vector<int64_t> &profile_args)
{
    Program program = frontend(source);
    if (!profile_args.empty())
        program.defaultArgs = profile_args;
    ProfileData profile = prepareProgram(program, profile_args);
    return addProgram(std::move(program), std::move(profile),
                      std::move(name));
}

Program &
Session::program(size_t unit)
{
    CHF_ASSERT(unit < units.size(), "session unit index out of range");
    return units[unit].prog();
}

const Program &
Session::program(size_t unit) const
{
    CHF_ASSERT(unit < units.size(), "session unit index out of range");
    return units[unit].prog();
}

const std::string &
Session::unitName(size_t unit) const
{
    CHF_ASSERT(unit < units.size(), "session unit index out of range");
    return units[unit].name;
}

SessionResult
Session::compile()
{
    return compile(opts.threads);
}

SessionResult
Session::compile(int threads)
{
    Timer wall;
    if (opts.faultSpec)
        FaultInjector::instance().arm(*opts.faultSpec);

    const TrialMemoStats memo_before = trialMemoStats();
    const size_t n = units.size();
    std::vector<UnitSlot> slots(n);

    // Deadline governance (DESIGN.md §12): the watchdog thread exists
    // only when some unit can actually time out — otherwise tokens stay
    // null and the pipeline runs its historical code verbatim.
    bool need_watchdog = opts.deadlineMs > 0 || opts.unitTimeoutMs > 0;
    for (const Unit &u : units)
        if (u.overrides && u.overrides->unitTimeoutMs > 0)
            need_watchdog = true;
    std::unique_ptr<DeadlineWatchdog> watchdog;
    std::optional<DeadlineWatchdog::Clock::time_point> session_deadline;
    if (need_watchdog) {
        watchdog = std::make_unique<DeadlineWatchdog>();
        if (opts.deadlineMs > 0)
            session_deadline =
                DeadlineWatchdog::Clock::now() +
                std::chrono::milliseconds(opts.deadlineMs);
    }

    // The per-unit pipeline. Every mutable object in here is either
    // unit-local (program, analyses, checkpoints, the diagnostic
    // engine) or mutex-protected (the FaultInjector), so units can run
    // on any thread; FaultUnitScope keys fault matching to the unit
    // index so injection is schedule-independent too.
    auto run_unit = [&](size_t i) {
        UnitSlot &slot = slots[i];
        const Unit &unit = units[i];
        const SessionOptions &conf =
            unit.overrides ? *unit.overrides : opts;

        CompileOptions co;
        co.pipeline = conf.pipeline;
        co.policy = conf.policy;
        co.target = conf.target;
        co.runBackend = conf.runBackend;
        co.blockSplitting = conf.blockSplitting;
        co.keepGoing = conf.keepGoing;
        co.diags = conf.keepGoing ? &slot.diags : nullptr;

        const int max_retries = conf.retryAttempts;

        // Compilation mutates the program in place, so retry needs the
        // pre-attempt state back. Snapshot once, restore per retry.
        std::optional<Program> snapshot;
        if (max_retries > 0)
            snapshot = snapshotProgram(unit.prog());

        FaultUnitScope fault_scope(static_cast<int>(i));
        for (int attempt = 0;; ++attempt) {
            if (attempt > 0) {
                unit.prog().fn = snapshot->fn.clone();
                unit.prog().memory = snapshot->memory;
                unit.prog().defaultArgs = snapshot->defaultArgs;
                slot.result = CompileResult();
                if (conf.retryBackoffMs > 0)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(conf.retryBackoffMs));
            }
            slot.attempts = attempt + 1;

            // Per-attempt cancellation: a fresh source, watched for
            // the session deadline and/or this attempt's time budget.
            CancellationSource source;
            co.cancel = CancellationToken();
            std::vector<uint64_t> watches;
            if (watchdog) {
                if (session_deadline)
                    watches.push_back(watchdog->watch(
                        source, *session_deadline,
                        CancelKind::Deadline));
                if (conf.unitTimeoutMs > 0)
                    watches.push_back(watchdog->watch(
                        source,
                        DeadlineWatchdog::Clock::now() +
                            std::chrono::milliseconds(
                                conf.unitTimeoutMs),
                        CancelKind::Timeout));
                co.cancel = source.token();
            }

            CancellationScope cancel_scope(co.cancel);
            FaultAttemptScope attempt_scope(attempt);
            bool cancelled = false;
            try {
                slot.result =
                    detail::compileUnit(unit.prog(), unit.prof(), co);
            } catch (const CancelledError &e) {
                // Deterministic surface: one fixed diagnostic, the
                // cancel kind recorded as the unit's failed phase.
                slot.diags.report(e.diagnostic());
                slot.result.failedPhases.push_back(
                    cancelKindName(e.kind()));
                cancelled = true;
            } catch (...) {
                slot.error = std::current_exception();
            }
            for (uint64_t id : watches)
                watchdog->unwatch(id);

            // Cancelled attempts and hard errors are terminal; only a
            // degraded (rolled-back) attempt earns a retry.
            if (slot.error || cancelled)
                break;
            if (!slot.result.degraded() || attempt >= max_retries)
                break;
        }
    };

    const size_t workers =
        std::min(static_cast<size_t>(std::max(threads, 1)), n);
    if (workers <= 1) {
        // Sequential: unit after unit on the calling thread.
        for (size_t i = 0; i < n; ++i)
            run_unit(i);
    } else {
        // Flat unit loop: every worker claims the next unit index from
        // one counter until none are left. Which worker ran a unit
        // never shows in the output, because the join below reads the
        // slots in unit order. An exception escaping run_unit is parked
        // in its slot (a throw out of a thread entry would terminate).
        std::atomic<size_t> next{0};
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (size_t w = 0; w < workers; ++w) {
            pool.emplace_back([&] {
                for (size_t i = next++; i < n; i = next++) {
                    try {
                        run_unit(i);
                    } catch (...) {
                        slots[i].error = std::current_exception();
                    }
                }
            });
        }
        for (std::thread &t : pool)
            t.join();
    }

    // Deterministic join: everything is merged in unit order, never in
    // completion order.
    SessionResult out;
    out.functions.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        UnitSlot &slot = slots[i];
        if (slot.error)
            std::rethrow_exception(slot.error);

        FunctionResult fr;
        fr.name = units[i].name;
        fr.blocks = units[i].prog().fn.numBlocks();
        fr.insts = units[i].prog().fn.totalInsts();
        fr.stats = std::move(slot.result.stats);
        fr.failedPhases = std::move(slot.result.failedPhases);
        fr.attempts = slot.attempts;

        out.totals.merge(fr.stats);
        out.diagnostics.append(slot.diags, static_cast<int>(i));
        out.functions.push_back(std::move(fr));
    }
    out.diagnostics.sortStable();

    out.totals.set("unitsCompiled", static_cast<int64_t>(n));
    out.totals.set("unitsDegraded",
                   static_cast<int64_t>(out.degradedCount()));
    int64_t retried = 0;
    for (const FunctionResult &fr : out.functions)
        retried += fr.attempts > 1 ? 1 : 0;
    out.totals.set("unitsRetried", retried);
    out.totals.set("usSessionWall", wall.elapsedMicros());

    // Trial-memo store activity attributable to this compile: the
    // store is process-wide, so hits/misses/evictions are reported as
    // deltas; entries/occupancy are point-in-time absolutes.
    const TrialMemoStats memo_after = trialMemoStats();
    out.totals.set("trialMemoStoreHits",
                   static_cast<int64_t>(memo_after.hits -
                                        memo_before.hits));
    out.totals.set("trialMemoStoreMisses",
                   static_cast<int64_t>(memo_after.misses -
                                        memo_before.misses));
    out.totals.set("trialMemoStoreEvictions",
                   static_cast<int64_t>(memo_after.evictions -
                                        memo_before.evictions));
    out.totals.set("trialMemoStoreEntries",
                   static_cast<int64_t>(memo_after.entries));
    out.totals.set("trialMemoStoreMaxShard",
                   static_cast<int64_t>(memo_after.maxShardEntries));
    return out;
}

Program
Session::frontend(const std::string &source, const std::string &entry_name,
                  const LoweringOptions &options)
{
    // API-boundary handler: tools that have not opted into diagnostic
    // collection keep the historical fatal-and-exit(1) behavior.
    try {
        TranslationUnit unit = parseTinyC(source);
        return lowerToIR(unit, entry_name, options);
    } catch (const RecoverableError &e) {
        fatal(e.what());
    }
}

std::optional<Program>
Session::frontend(const std::string &source, DiagnosticEngine &diags,
                  const std::string &entry_name,
                  const LoweringOptions &options)
{
    try {
        TranslationUnit unit = parseTinyC(source);
        return lowerToIR(unit, entry_name, options);
    } catch (const RecoverableError &e) {
        diags.report(e.diagnostic());
        return std::nullopt;
    }
}

} // namespace chf
