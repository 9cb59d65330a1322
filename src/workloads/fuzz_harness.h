/**
 * @file
 * Differential fuzzing harness over the seeded TinyC generator.
 *
 * Each generated program is compiled through a chf::Session under a
 * matrix of configurations — policy × fault none/corrupt-ir × thread
 * count — and every cell's FunctionalSimulator output must match the
 * unoptimized reference (return value plus the user-visible memory
 * hash, MemoryImage::userHash(), which excludes residual spill slots).
 *
 * On top of the semantic oracle the harness enforces the repo's
 * determinism contracts (DESIGN.md §9–§10): within one
 * (policy, fault) group, the emitted asm and the diagnostic stream
 * must be byte-identical across thread counts and against a cold
 * failed-trial memo. The harness clears the memo store
 * (clearTrialMemo) before each group's first cell, so that cell runs
 * cold and every later cell of the group runs warm.
 *
 * A failure shrinks: the shape grammar is reduced greedily while the
 * failure reproduces, and the surviving (seed, shape) pair — printed
 * as a `--gen=` spec string — is the whole reproducer.
 */

#ifndef CHF_WORKLOADS_FUZZ_HARNESS_H
#define CHF_WORKLOADS_FUZZ_HARNESS_H

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "hyperblock/phase_ordering.h"
#include "workloads/generator.h"

namespace chf {

/** One cell of the differential matrix. */
struct FuzzConfig
{
    PolicyKind policy = PolicyKind::BreadthFirst;
    int threads = 1;

    /** Arm a formation corrupt-ir fault (keep-going mode): the phase
     *  must roll back and the degraded output still match the oracle. */
    bool faultCorruptIr = false;

    /** Human-readable cell name, e.g.
     *  "policy=bfs threads=4 fault=corrupt-ir". */
    std::string label() const;

    /** Cells whose asm/diagnostics must be byte-identical share this
     *  key (policy and fault change output; the rest must not). */
    std::string determinismGroup() const;
};

/** The full matrix, ordered policy → fault {none, corrupt-ir} →
 *  threads {1,4}: 4 × 2 × 2 = 16 cells, each determinism group's
 *  cells adjacent. */
std::vector<FuzzConfig> fuzzFullMatrix();

/** A cheap sub-matrix for the ≤30s smoke gate: 2 policies, each at
 *  both thread counts plus one fault cell = 6 cells. */
std::vector<FuzzConfig> fuzzSmokeMatrix();

/** A shrunk, reproducible fuzz failure. */
struct FuzzFailure
{
    uint64_t seed = 0;
    GeneratorShape shape;

    /** Label of the failing cell (or the two diverging cells). */
    std::string config;

    /** What diverged: sim values, asm identity, or an exception. */
    std::string detail;

    /** One-line repro command for the CLI. */
    std::string repro;
};

/** Aggregate outcome of a campaign. */
struct FuzzReport
{
    int programs = 0;
    int configsRun = 0;
    std::optional<FuzzFailure> failure;

    bool passed() const { return !failure.has_value(); }
};

/**
 * Differentially test one generated program against @p configs.
 * Returns the (shrunk, when @p shrink) failure, or nullopt if every
 * cell matches the oracle and the determinism groups agree.
 */
std::optional<FuzzFailure> fuzzOneProgram(
    uint64_t seed, const GeneratorShape &shape,
    const std::vector<FuzzConfig> &configs, bool shrink = true);

/**
 * Run @p count programs starting at @p first_seed, rotating through
 * the named shape presets. Stops at the first (shrunk) failure. When
 * @p log is set, emits one line per program — the line printed before
 * a crash identifies the offending (seed, shape).
 */
FuzzReport runFuzzCampaign(uint64_t first_seed, int count,
                           const std::vector<FuzzConfig> &configs,
                           bool shrink = true,
                           std::ostream *log = nullptr);

} // namespace chf

#endif // CHF_WORKLOADS_FUZZ_HARNESS_H
