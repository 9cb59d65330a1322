#include "pipeline/session.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <thread>
#include <type_traits>

#include "analysis/analysis_manager.h"
#include "frontend/lowering.h"
#include "frontend/parser.h"
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
    FunctionResult result;
    DiagnosticEngine diags;
    std::exception_ptr error;
};

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
Session::addLowered(Program program, std::string name,
                    std::optional<SessionOptions> unit_options)
{
    size_t unit = addProgram(std::move(program), ProfileData{},
                             std::move(name), std::move(unit_options));
    units[unit].lowered = true;
    return unit;
}

size_t
Session::addSource(const std::string &source, std::string name,
                   const std::vector<int64_t> &profile_args)
{
    Program program = frontend(source);
    if (!profile_args.empty())
        program.defaultArgs = profile_args;
    return addLowered(std::move(program), std::move(name));
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

SessionResult
Session::compile()
{
    return compile(opts.threads);
}

SessionResult
Session::compile(int threads)
{
    Timer wall;
    const size_t n = units.size();
    std::vector<UnitSlot> slots(n);
    const FaultSpec *fault = opts.faultSpec ? &*opts.faultSpec : nullptr;

    // The per-unit pipeline. Every mutable object in here is unit-local
    // (program, analyses, phase snapshots, the diagnostic engine, and
    // the thread-local deadline and fault scopes), so units can run on
    // any thread; the fault scope is keyed to the unit index, so
    // injection is schedule-independent too.
    auto run_unit = [&](size_t i) {
        UnitSlot &slot = slots[i];
        const Unit &unit = units[i];
        const SessionOptions &conf =
            unit.overrides ? *unit.overrides : opts;
        DiagnosticEngine *diags = conf.keepGoing ? &slot.diags : nullptr;

        // The unit's request state: the scopes the pipeline's poll and
        // hook sites read (DESIGN.md §12).
        CancellationToken budget;
        if (conf.unitTimeoutMs > 0)
            budget = CancellationToken(
                CancellationToken::Clock::now() +
                std::chrono::milliseconds(conf.unitTimeoutMs));
        CancellationScope cancel_scope(budget);
        FaultScope fault_scope(fault, static_cast<int>(i));
        FunctionResult &out = slot.result;
        size_t prepare_failures = 0;
        try {
            // A lowered unit is prepared here, inside its scopes, so its
            // deadline and fault cover prepare like any other phase. A
            // rolled-back for-loop unroll is its first failed phase.
            int64_t prepare_us = 0;
            if (unit.lowered) {
                Timer prepare;
                *unit.ownedProfile = prepareProgram(
                    unit.prog(), {}, true, diags, conf.keepGoing);
                prepare_us = prepare.elapsedMicros();
                if (slot.diags.hasPhase("unroll"))
                    out.failedPhases.push_back("unroll");
                prepare_failures = out.failedPhases.size();
            }
            detail::compileUnit(unit.prog(), unit.prof(), conf, diags, out);
            if (unit.lowered) {
                out.stats.set("usPrepare", prepare_us);
                out.stats.add("usCompileTotal", prepare_us);
            }
        } catch (const CancelledError &e) {
            // Deterministic surface: the unit drops what its pipeline
            // recorded before the deadline, reports one fixed
            // diagnostic, and records "timeout" as its failed phase.
            out.stats = StatSet();
            out.failedPhases.resize(prepare_failures);
            slot.diags.report(e.diagnostic());
            out.failedPhases.push_back(e.diagnostic().phase);
        } catch (...) {
            slot.error = std::current_exception();
        }
        if (fault)
            out.stats.set("faultsFired", fault_scope.fired() ? 1 : 0);
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

        FunctionResult &fr = slot.result;
        fr.name = units[i].name;
        fr.blocks = units[i].prog().fn.numBlocks();
        fr.insts = units[i].prog().fn.totalInsts();

        out.totals.merge(fr.stats);
        out.diagnostics.append(slot.diags, static_cast<int>(i));
        out.functions.push_back(std::move(fr));
    }
    out.diagnostics.sortStable();

    out.totals.set("unitsCompiled", static_cast<int64_t>(n));
    out.totals.set("unitsDegraded",
                   static_cast<int64_t>(out.degradedCount()));
    out.totals.set("usSessionWall", wall.elapsedMicros());
    return out;
}

Program
Session::frontend(const std::string &source)
{
    // API-boundary handler: tools that have not opted into diagnostic
    // collection keep the historical fatal-and-exit(1) behavior.
    try {
        TranslationUnit unit = parseTinyC(source);
        return lowerToIR(unit);
    } catch (const RecoverableError &e) {
        fatal(e.what());
    }
}

std::optional<Program>
Session::frontend(const std::string &source, DiagnosticEngine &diags)
{
    try {
        TranslationUnit unit = parseTinyC(source);
        return lowerToIR(unit);
    } catch (const RecoverableError &e) {
        diags.report(e.diagnostic());
        return std::nullopt;
    }
}

} // namespace chf
