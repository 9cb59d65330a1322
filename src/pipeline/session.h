/**
 * @file
 * chf::Session — the unified compilation façade and parallel driver.
 *
 * A Session owns a batch of compilation units (a prepared Program plus
 * its ProfileData, or a lowered Program the unit prepares itself), a
 * SessionOptions configuration, and compiles every unit through the
 * phase pipeline (prepare → formation → regalloc → fanout → schedule).
 * Units are independent by construction — each worker gets
 * its own AnalysisManager, phase snapshots, DiagnosticEngine, time
 * budget and fault scope — so compile(nThreads) runs units on up to
 * nThreads worker threads, each claiming the next unit index from one
 * shared counter, and still produces bit-identical output at any
 * thread count:
 *
 *  - per-unit results land in per-unit slots, merged in unit order;
 *  - per-worker diagnostics are stamped with the unit index and merged
 *    with the stable (function, phase, location) sort;
 *  - each unit runs in its own FaultScope keyed by its index, so
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
 * may override them individually via addProgram or addLowered);
 * threads and faultSpec are session-wide.
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
     * Keep-going mode: each destructive phase runs under runPhase's
     * snapshot/verify guard and a failing one is rolled back and
     * recorded instead of aborting the process. Failures are collected
     * in SessionResult::diagnostics. Off (strict) runs the same phase
     * bodies with no snapshots or fault hooks.
     */
    bool keepGoing = false;

    /** Worker threads for compile(); 1 = the sequential code path. */
    int threads = 1;

    /**
     * Armed in one FaultScope per unit while compile() runs, with the
     * unit's index, so fn:<n> names unit n. Each unit then records a
     * faultsFired counter (0 or 1) in its stats.
     */
    std::optional<FaultSpec> faultSpec;

    /**
     * Time budget for each unit in milliseconds (0 = none). The unit's
     * deadline is set when it starts; a unit still running past it
     * aborts at its next poll with a `timeout` diagnostic and degrades.
     */
    int unitTimeoutMs = 0;

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

    SessionOptions &withKeepGoing(bool on) { keepGoing = on; return *this; }
    SessionOptions &withThreads(int n) { threads = n; return *this; }

    SessionOptions &
    withFault(const FaultSpec &spec)
    {
        faultSpec = spec;
        return *this;
    }

    SessionOptions &
    withUnitTimeout(int ms)
    {
        unitTimeoutMs = ms;
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

    /** m/t/u/p counters, backend numbers, usXxx phase timers, and
     *  faultsFired when SessionOptions::faultSpec is set. */
    StatSet stats;

    /** Phases rolled back in keepGoing mode (empty on a clean run).
     *  A unit past its time budget records "timeout" as its failed
     *  phase. */
    std::vector<std::string> failedPhases;

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
     * Add a lowered, unprepared unit (Session::frontend or
     * buildGenerated output; its defaultArgs are the profiling
     * arguments). compile() runs prepareProgram in the unit's worker,
     * inside its deadline and fault scopes, strict or keep-going as the
     * unit's options say; a rolled-back prepare "unroll" is its first
     * failed phase, and its usCompileTotal includes its usPrepare.
     */
    size_t addLowered(Program program, std::string name = "",
                      std::optional<SessionOptions> unit_options = {});

    /**
     * Session::frontend on the calling thread (fatal on malformed
     * input), @p profile_args as defaultArgs when given, then
     * addLowered.
     */
    size_t addSource(const std::string &source, std::string name = "",
                     const std::vector<int64_t> &profile_args = {});

    size_t size() const { return units.size(); }

    /** The unit's program (compiled in place by compile()). */
    Program &program(size_t unit);
    const Program &program(size_t unit) const;

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
    static Program frontend(const std::string &source);

    /**
     * Parse + lower, reporting input errors to @p diags instead of
     * exiting; std::nullopt after recording the Diagnostic.
     */
    static std::optional<Program>
    frontend(const std::string &source, DiagnosticEngine &diags);

  private:
    struct Unit
    {
        /** Owned storage (null for addProgramRef units). */
        std::unique_ptr<Program> ownedProgram;
        std::unique_ptr<ProfileData> ownedProfile;

        /** Added by addLowered: compile() prepares it, filling
         *  ownedProfile. */
        bool lowered = false;

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
