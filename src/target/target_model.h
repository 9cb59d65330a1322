/**
 * @file
 * chf::TargetModel — the pluggable target description.
 *
 * The paper presents hyperblock formation as a policy framework whose
 * constraint checks are parameterized by the TRIPS block limits (§2);
 * nothing in the algorithms is TRIPS-specific beyond the numbers. This
 * header splits the target description out of the formation engine the
 * way a backend description is split from a frontend: one value object
 * carries every architectural parameter the pipeline reads — block
 * format, LSQ geometry, register-bank geometry, branch/output model,
 * register-file size, and the spill-headroom policy — and is threaded
 * through constraints, merging, phase ordering, reverse if-conversion,
 * register allocation, and reporting (DESIGN.md §13).
 *
 * A named registry provides the reference `trips` model plus synthetic
 * targets (`trips-wide`, `small-block`, `deep-lsq`) used by the policy
 * auto-tuner and bench/target_sweep to extend the paper's
 * policy-framework result beyond TRIPS. A default-constructed
 * TargetModel is the trips target.
 */

#ifndef CHF_TARGET_TARGET_MODEL_H
#define CHF_TARGET_TARGET_MODEL_H

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

namespace chf {

/**
 * Architectural limits of one EDGE-style block-atomic target. The
 * defaults describe the prototype TRIPS ISA (paper §2): 128-inst
 * blocks, 32 load/store identifiers, 4 register banks of 8 reads and
 * 8 writes each, a 128-entry register file.
 *
 * Plain aggregate by design: every field is a knob the auto-tuner may
 * vary, and two models with equal knob values behave identically (the
 * `name` is a registry label, not a semantic input — it never reaches
 * a constraint check or a trial-memo key).
 */
struct TargetModel
{
    /** Most banks any model may declare (BlockResources sizes its
     *  per-bank arrays with this, keeping block analysis
     *  allocation-free on the trial hot path). */
    static constexpr size_t kMaxBanks = 8;

    /** Registry label ("trips", "trips-wide", ...; free-form for
     *  ad-hoc models). Reporting and the server cache key use it;
     *  constraint checks never do. */
    std::string name = "trips";

    // --- block format ---

    /** Regular instructions per block. */
    size_t maxInsts = 128;

    /** Static load/store identifiers per block. */
    size_t maxMemOps = 32;

    /**
     * Load/store queue depth. A block cannot use more memory-op slots
     * than the LSQ can track, so the effective per-block memory-op
     * limit is min(maxMemOps, lsqDepth) — see effectiveMemOps(). TRIPS
     * sizes the LSQ to the block format (32), making the two limits
     * coincide; the `deep-lsq` synthetic target splits them apart.
     */
    size_t lsqDepth = 32;

    // --- register-bank geometry ---

    size_t numRegBanks = 4;
    size_t maxReadsPerBank = 8;
    size_t maxWritesPerBank = 8;

    // --- branch/output model ---

    /**
     * Exit branches a block may carry, 0 = bounded only by maxInsts.
     * TRIPS encodes a constant number of outputs per block but places
     * no separate cap below the instruction budget, so the reference
     * model leaves this 0; synthetic targets may constrain it.
     */
    size_t maxBranches = 0;

    // --- register file / spill policy ---

    /** Architectural registers available to the allocator. */
    size_t numPhysRegs = 128;

    /**
     * Instructions of headroom formation reserves per block for later
     * spill code (the spill-headroom policy; MergeOptions::sizeHeadroom
     * is seeded from this).
     */
    size_t spillHeadroom = 4;

    // --- derived limits ---

    size_t
    maxRegReads() const
    {
        return numRegBanks * maxReadsPerBank;
    }

    size_t
    maxRegWrites() const
    {
        return numRegBanks * maxWritesPerBank;
    }

    /** The per-block memory-op limit the LSQ can actually honor. */
    size_t
    effectiveMemOps() const
    {
        return std::min(maxMemOps, lsqDepth);
    }

    /** Bank count clamped to a usable range (≥1, ≤kMaxBanks) so the
     *  modulo bank proxy in analyzeBlock is total even for degenerate
     *  hand-built models; validate() reports such models as invalid. */
    size_t
    effectiveBanks() const
    {
        return std::clamp<size_t>(numRegBanks, 1, kMaxBanks);
    }

    /**
     * Structural sanity: empty when the model is usable, else a
     * human-readable reason (0 or >kMaxBanks banks, a zero block
     * budget, headroom that exceeds the block budget, ...). Registry
     * models always validate; the fluent withTarget entry points
     * reject models that do not.
     */
    std::string validate() const;

    /** Equality over the semantic knobs — `name` excluded, matching
     *  its no-semantic-input contract. */
    bool
    sameKnobs(const TargetModel &o) const
    {
        return maxInsts == o.maxInsts && maxMemOps == o.maxMemOps &&
               lsqDepth == o.lsqDepth && numRegBanks == o.numRegBanks &&
               maxReadsPerBank == o.maxReadsPerBank &&
               maxWritesPerBank == o.maxWritesPerBank &&
               maxBranches == o.maxBranches &&
               numPhysRegs == o.numPhysRegs &&
               spillHeadroom == o.spillHeadroom;
    }
};

// --- named registry ---

/** The reference TRIPS model (equal to a default TargetModel). */
const TargetModel &tripsTarget();

/**
 * All registered models, in deterministic definition order: `trips`
 * plus the synthetic sweep targets `trips-wide` (256-inst blocks, 8
 * banks, 256 registers), `small-block` (32-inst blocks, 2 banks, 64
 * registers), and `deep-lsq` (TRIPS format with a 64-deep LSQ and 64
 * memory-op identifiers).
 */
const std::vector<TargetModel> &targetRegistry();

/** Look a model up by registry name; nullptr when unknown. */
const TargetModel *findTarget(const std::string &name);

/** Registry names in definition order (driver --list output, error
 *  messages, JSON schema docs). */
std::vector<std::string> targetNames();

/** "trips, trips-wide, ..." for one-line error messages. */
std::string targetNamesJoined();

} // namespace chf

#endif // CHF_TARGET_TARGET_MODEL_H
