/**
 * @file
 * chf::Session — the unified compilation façade and parallel driver.
 *
 * A Session owns a batch of compilation units (a prepared Program plus
 * its ProfileData), a SessionOptions configuration, and compiles every
 * unit through the full guarded phase pipeline (formation → regalloc →
 * fanout → schedule). Units are independent by construction — each
 * worker gets its own AnalysisManager, FunctionCheckpoint scratch
 * space, and thread-local DiagnosticEngine — so compile(nThreads)
 * runs units on up to nThreads worker threads, each claiming the next
 * unit index from one shared counter, and still produces bit-identical
 * output at any thread count:
 *
 *  - per-unit results land in per-unit slots, merged in unit order;
 *  - per-worker diagnostics are stamped with the unit index and merged
 *    with the stable (function, phase, location) sort;
 *  - fault injection matches on unit index (see FaultUnitScope), so
 *    --fault=phase:P,fn:N fires exactly once under any thread count.
 *
 * compile() with one thread (or one unit) spawns no threads at all and
 * runs the units in order on the calling thread. The ownership model
 * and determinism contract are documented in DESIGN.md §9; the API
 * guide is docs/api.md.
 */

#ifndef CHF_PIPELINE_SESSION_H
#define CHF_PIPELINE_SESSION_H

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/profile.h"
#include "frontend/lowering.h"
#include "hyperblock/phase_ordering.h"
#include "support/diagnostics.h"
#include "support/fault_inject.h"
#include "support/stats.h"

namespace chf {

/**
 * Full session configuration, built fluently:
 *
 *   Session session(SessionOptions()
 *                       .withPolicy(PolicyKind::BreadthFirst)
 *                       .withKeepGoing(true)
 *                       .withThreads(4));
 *
 * The pipeline/policy/constraint fields configure every unit (units
 * may override them individually via addProgram); threads and
 * faultSpec are session-wide.
 */
struct SessionOptions
{
    Pipeline pipeline = Pipeline::IUPO_fused;
    PolicyKind policy = PolicyKind::BreadthFirst;

    /** Target description compiled for (target/target_model.h). The
     *  default is the TRIPS reference model; set a registry model or a
     *  hand-built one with withTarget(). */
    TargetModel target;

    /** Run output normalization, register allocation, and fanout. */
    bool runBackend = true;

    /** Enable basic-block splitting during formation (paper §9). */
    bool blockSplitting = false;

    /**
     * Transactional mode: run each destructive phase under a
     * checkpoint/verify guard and degrade instead of aborting.
     * Failures are collected in SessionResult::diagnostics.
     */
    bool keepGoing = false;

    /** Worker threads for compile(); 1 = the sequential code path. */
    int threads = 1;

    /** Armed on the process-wide FaultInjector when compile() starts. */
    std::optional<FaultSpec> faultSpec;

    /**
     * Whole-session deadline in milliseconds (0 = none), measured from
     * compile() entry. Units still running when it expires abort at
     * their next cancellation poll with a `deadline` diagnostic and
     * degrade; finished units are untouched. Session-wide like threads
     * and faultSpec — the field is ignored in per-unit overrides.
     */
    int deadlineMs = 0;

    /**
     * Per-attempt time budget for each unit in milliseconds (0 =
     * none). An attempt that exceeds it aborts with a `timeout`
     * diagnostic and the unit degrades.
     */
    int unitTimeoutMs = 0;

    /**
     * Bounded retry: a degraded attempt (at least one rolled-back
     * phase, keepGoing mode) is re-run up to this many extra times on
     * a restored snapshot of the unit's program. Diagnostics from
     * every attempt survive, in attempt order (DESIGN.md §9 stable
     * sort); a unit whose final attempt is clean is not degraded.
     * Timeout / deadline / cancelled aborts are not retried.
     */
    int retryAttempts = 0;

    /** Fixed sleep between retry attempts, in milliseconds. */
    int retryBackoffMs = 0;

    SessionOptions &withPipeline(Pipeline p) { pipeline = p; return *this; }
    SessionOptions &withPolicy(PolicyKind k) { policy = k; return *this; }

    /** Compile for @p model. Panics when the model fails
     *  TargetModel::validate() — a structurally broken target would
     *  otherwise surface as inscrutable formation behavior. */
    SessionOptions &withTarget(const TargetModel &model);

    /** Compile for the registry model named @p name ("trips",
     *  "trips-wide", "small-block", "deep-lsq"). Panics on an unknown
     *  name, listing the registry. */
    SessionOptions &withTarget(const std::string &name);

    SessionOptions &withBackend(bool on) { runBackend = on; return *this; }

    SessionOptions &
    withBlockSplitting(bool on)
    {
        blockSplitting = on;
        return *this;
    }

    SessionOptions &withKeepGoing(bool on) { keepGoing = on; return *this; }
    SessionOptions &withThreads(int n) { threads = n; return *this; }

    SessionOptions &
    withFault(const FaultSpec &spec)
    {
        faultSpec = spec;
        return *this;
    }

    SessionOptions &withDeadline(int ms) { deadlineMs = ms; return *this; }

    SessionOptions &
    withUnitTimeout(int ms)
    {
        unitTimeoutMs = ms;
        return *this;
    }

    SessionOptions &
    withRetry(int attempts, int backoff_ms = 0)
    {
        retryAttempts = attempts;
        retryBackoffMs = backoff_ms;
        return *this;
    }
};

/** Per-unit outcome: what one function's compile produced. */
struct FunctionResult
{
    /** Unit name (workload name, or the function name if unnamed). */
    std::string name;

    /** Final hyperblock count of the compiled function. */
    size_t blocks = 0;

    /** Final static instruction count. */
    size_t insts = 0;

    /** m/t/u/p counters, backend numbers, usXxx phase timers. */
    StatSet stats;

    /** Phases rolled back in keepGoing mode (empty on a clean run).
     *  A cancelled unit records the cancel kind ("timeout",
     *  "deadline", "cancelled") as its failed phase. */
    std::vector<std::string> failedPhases;

    /** Compile attempts consumed (1 unless bounded retry re-ran it). */
    int attempts = 1;

    bool degraded() const { return !failedPhases.empty(); }
};

/** Batch outcome: one FunctionResult per unit plus the merged views. */
struct SessionResult
{
    /** Indexed by unit, in addProgram order. */
    std::vector<FunctionResult> functions;

    /**
     * All per-unit counters merged in unit order, followed by the
     * session counters (unitsCompiled, unitsDegraded, usSessionWall).
     */
    StatSet totals;

    /**
     * Per-worker diagnostics merged deterministically: stamped with
     * the unit index, appended in unit order, stable-sorted by
     * (function, phase, location) — byte-identical at any thread
     * count.
     */
    DiagnosticEngine diagnostics;

    /** True if any unit degraded. */
    bool degraded() const;

    /** Units that rolled back at least one phase. */
    size_t degradedCount() const;

    /** "name:phase" for every rolled-back phase, in unit order. */
    std::vector<std::string> failedPhases() const;
};

/** The unified compilation driver. */
class Session
{
  public:
    Session() = default;
    explicit Session(SessionOptions options) : opts(std::move(options)) {}

    SessionOptions &options() { return opts; }
    const SessionOptions &options() const { return opts; }

    /**
     * Add a unit the session owns. @p unit_options overrides the
     * session-wide pipeline/policy/constraint configuration for this
     * unit only (threads/faultSpec fields of an override are ignored).
     * @return the unit index.
     */
    size_t addProgram(Program program, ProfileData profile,
                      std::string name = "",
                      std::optional<SessionOptions> unit_options = {});

    /**
     * Add a unit over caller-owned storage, compiled in place. Both
     * references must outlive the session.
     */
    size_t addProgramRef(Program &program, const ProfileData &profile,
                         std::string name = "",
                         std::optional<SessionOptions> unit_options = {});

    /**
     * Front end + preparation in one step: parse and lower TinyC,
     * then run prepareProgram (cleanup, profiling, for-loop
     * unrolling) with @p profile_args. Fatal on malformed input, like
     * Session::frontend.
     */
    size_t addSource(const std::string &source, std::string name = "",
                     const std::vector<int64_t> &profile_args = {});

    size_t size() const { return units.size(); }

    /** The unit's program (compiled in place by compile()). */
    Program &program(size_t unit);
    const Program &program(size_t unit) const;

    const std::string &unitName(size_t unit) const;

    /** Compile every unit with options().threads workers. */
    SessionResult compile();

    /**
     * Compile every unit with min(@p threads, size()) workers. One
     * worker runs the units in order on the calling thread; more start
     * that many std::threads, each pulling the next unit index from
     * one atomic counter. Output is bit-identical either way.
     */
    SessionResult compile(int threads);

    /**
     * Parse + lower TinyC to a runnable Program. Calls fatal()
     * (exit 1) on malformed input.
     */
    static Program frontend(const std::string &source,
                            const std::string &entry_name = "main",
                            const LoweringOptions &options = {});

    /**
     * Parse + lower, reporting input errors to @p diags instead of
     * exiting; std::nullopt after recording the Diagnostic.
     */
    static std::optional<Program>
    frontend(const std::string &source, DiagnosticEngine &diags,
             const std::string &entry_name = "main",
             const LoweringOptions &options = {});

  private:
    struct Unit
    {
        /** Owned storage (null for addProgramRef units). */
        std::unique_ptr<Program> ownedProgram;
        std::unique_ptr<ProfileData> ownedProfile;

        /** Caller-owned storage (null for owned units). */
        Program *externalProgram = nullptr;
        const ProfileData *externalProfile = nullptr;

        std::string name;
        std::optional<SessionOptions> overrides;

        Program &
        prog() const
        {
            return ownedProgram ? *ownedProgram : *externalProgram;
        }

        const ProfileData &
        prof() const
        {
            return ownedProfile ? *ownedProfile : *externalProfile;
        }
    };

    std::vector<Unit> units;
    SessionOptions opts;
};

} // namespace chf

#endif // CHF_PIPELINE_SESSION_H
