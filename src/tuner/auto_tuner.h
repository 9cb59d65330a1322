/**
 * @file
 * chf::AutoTuner — budget-governed search over the policy × target-knob
 * space for one prepared program.
 *
 * The tuner evaluates candidate configurations (a block-selection
 * policy plus a TargetModel variant) by compiling each through a
 * chf::Session batch — so candidates run in parallel on the Session's
 * workers and share the process-wide trial-memo store — and
 * scoring the result with the deterministic simulators. The outcome is
 * a Pareto report over three axes:
 *
 *   - blocks:     final hyperblock count (fewer = better formation),
 *   - codeGrowth: static instructions relative to the BB baseline
 *                 (duplication cost, paper Table 3's concern),
 *   - cycles:     simulated cycles from the timing model.
 *
 * Search runs in two phases, both deterministic: a grid pass over the
 * configured policies and knob values, then bounded greedy refinement
 * around the incumbent (halve/double maxInsts, step spillHeadroom).
 * A trial budget (TunerOptions::maxTrials) governs the whole search —
 * grid candidates past the budget are dropped (recorded in
 * TunerReport::truncated) and refinement stops when it runs dry.
 *
 * Every run with the same inputs produces byte-identical reports at
 * any thread count: candidate order is fixed, Session output is
 * bit-identical, the simulators are deterministic, and the report
 * carries no wall-clock fields. DESIGN.md §13.
 */

#ifndef CHF_TUNER_AUTO_TUNER_H
#define CHF_TUNER_AUTO_TUNER_H

#include <cstdint>
#include <string>
#include <vector>

#include "pipeline/session.h"

namespace chf {

/** Search-space and budget configuration for AutoTuner. */
struct TunerOptions
{
    /** Policies to cross with the knob grid. */
    std::vector<PolicyKind> policies = {PolicyKind::BreadthFirst,
                                        PolicyKind::DepthFirst,
                                        PolicyKind::Vliw};

    /** Base target; every candidate is a variant of this model. */
    TargetModel baseTarget;

    /** maxInsts grid values (empty = just the base value). */
    std::vector<size_t> maxInstsGrid;

    /** spillHeadroom grid values (empty = just the base value). */
    std::vector<size_t> spillHeadroomGrid;

    /** Pipeline every candidate compiles under. */
    Pipeline pipeline = Pipeline::IUPO_fused;

    /** Session worker threads (1 = sequential; output identical). */
    int threads = 1;

    /** Greedy refinement rounds after the grid pass. */
    int greedyRounds = 2;

    /** Total trial budget across grid + refinement. */
    size_t maxTrials = 64;
};

/** One evaluated (policy, target-variant) candidate. */
struct TunerPoint
{
    /** Stable human-readable key, e.g. "bfs/insts128/headroom4". */
    std::string label;

    PolicyKind policy = PolicyKind::BreadthFirst;
    TargetModel target;

    /** Final hyperblock count. */
    size_t blocks = 0;

    /** Final static instruction count. */
    size_t insts = 0;

    /** Static insts relative to the pre-formation program (1.0 = no
     *  duplication cost). */
    double codeGrowth = 0.0;

    /** Simulated cycles (deterministic timing model). */
    uint64_t cycles = 0;

    /** On the Pareto front over (blocks, codeGrowth, cycles). */
    bool pareto = false;
};

/** Everything AutoTuner::tune produces. Deterministic by contract. */
struct TunerReport
{
    /** Every evaluated candidate, in evaluation order. */
    std::vector<TunerPoint> points;

    /** Indices into points, Pareto-optimal, in evaluation order. */
    std::vector<size_t> paretoFront;

    /** Index of the pick: fewest cycles, ties broken by codeGrowth
     *  then label. */
    size_t best = 0;

    /** Grid candidates dropped by the trial budget. */
    size_t truncated = 0;

    /** Pre-formation static instruction count (codeGrowth divisor). */
    size_t baselineInsts = 0;

    /** Render as JSON. No wall-clock fields: two runs over the same
     *  inputs must produce identical bytes. */
    std::string toJson(const std::string &workload = "") const;
};

/** The search driver. Stateless between tune() calls. */
class AutoTuner
{
  public:
    explicit AutoTuner(TunerOptions options);

    /**
     * Search the configured space for @p prepared (a program after
     * prepareProgram) and return the scored report. Every candidate's
     * functional-simulation result is checked against the baseline
     * program's; a semantics mismatch is fatal.
     */
    TunerReport tune(const Program &prepared, const ProfileData &profile);

    const TunerOptions &options() const { return opts; }

  private:
    TunerOptions opts;
};

} // namespace chf

#endif // CHF_TUNER_AUTO_TUNER_H
