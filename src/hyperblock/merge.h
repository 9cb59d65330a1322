/**
 * @file
 * The MergeBlocks procedure of convergent hyperblock formation (paper
 * Fig. 5, lines 1-17).
 *
 * A merge is tested in scratch space: HB and S are copied, combined via
 * incremental if-conversion, optionally optimized, and checked against
 * the structural constraints; only then is the CFG transformed. On
 * success the engine classifies the merge:
 *
 *  - Simple:   S had one predecessor; S is removed outright.
 *  - TailDup:  S had side entrances; S stays for the other paths
 *              (classical tail duplication, Fig. 2).
 *  - Peel:     S is a loop header entered from outside the loop; the
 *              merged copy is a peeled iteration (head duplication,
 *              Fig. 3).
 *  - Unroll:   HB -> S is HB's own back edge; the merged copy is an
 *              unrolled iteration (head duplication, Fig. 4). The
 *              original loop body is saved on first unroll and appended
 *              one pristine iteration at a time, so unroll factors are
 *              not limited to powers of two (paper §4.1).
 *
 * The engine owns an AnalysisManager: loop / predecessor / liveness
 * queries are answered from one cached snapshot per candidate, and the
 * engine reports every CFG mutation it commits so the cache stays
 * exact. Failed merges leave the CFG -- and thus the cache -- intact.
 *
 * tryMerge is the one implementation of a merge trial. The trials of
 * one function run serially on the thread compiling it; a Session
 * runs units in parallel, never the trials within one (DESIGN.md §9).
 * The engine takes no deadline: expandBlock polls the unit's
 * CancellationToken::current() between merge rounds (DESIGN.md §12).
 *
 * Trial-merge fast path (DESIGN.md §10). The convergent loop retries
 * failed candidates after every successful merge, so most trials are
 * repeats. Two layers make them cheap, and they are the only trial
 * path:
 *  1. a persistent scratch arena (blocks + per-pass temporaries)
 *     reused across trials,
 *  2. a failed-trial memo keyed by a content hash of both blocks, the
 *     merge kind, the constraint configuration, and the live-out
 *     context -- self-invalidating, because any committed change to a
 *     participating block changes its hash. The store is process-wide
 *     (mutex-guarded): the key covers every input the trial reads, so
 *     an entry recorded by one engine answers identically for any
 *     other, and hits arise whenever identical content is compiled
 *     repeatedly (best-of-N timing runs, multi-unit Session batches of
 *     similar functions, re-expansion after a transactional rollback).
 *     A memo hit replays the vreg burn the failed trial recorded, so
 *     vreg numbering -- and thus all downstream output -- is the same
 *     as re-running the trial.
 * A compile after clearTrialMemo() runs cold, with no memo hits, and
 * is the reference a warm compile must match byte for byte; the
 * arena's reference is the same trial on fresh (nullptr) scratch
 * (tests/hyperblock/test_merge_trace.cpp).
 */

#ifndef CHF_HYPERBLOCK_MERGE_H
#define CHF_HYPERBLOCK_MERGE_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/analysis_manager.h"
#include "hyperblock/constraints.h"
#include "support/stats.h"
#include "transform/if_convert.h"
#include "transform/optimize.h"

namespace chf {

/** How a successful merge transformed the CFG. */
enum class MergeKind { Simple, TailDup, Peel, Unroll };

const char *mergeKindName(MergeKind kind);

/** Knobs of the merge engine. */
struct MergeOptions
{
    /** Target description whose structural limits gate every merge
     *  (target/target_model.h; defaults to the TRIPS model). */
    TargetModel target;

    /** Run scalar optimizations on the scratch block (the "O" of
     *  (IUPO); off reproduces (IUP)O and the plain VLIW heuristic). */
    bool optimizeDuringMerge = true;

    /** Allow Peel/Unroll merges (head duplication). Off restricts the
     *  engine to classical if-conversion + tail duplication. */
    bool enableHeadDuplication = true;

    /** Instructions reserved for later spill code. */
    size_t sizeHeadroom = 4;

    /**
     * Basic-block splitting (paper §9): when a single-predecessor
     * candidate is too large to merge whole, split it and merge its
     * first piece, improving code density at the cost of a cross-block
     * value handoff.
     */
    bool enableBlockSplitting = false;

    /** Record every tryMerge attempt in MergeEngine::trace(). */
    bool recordMergeTrace = false;
};

/**
 * Snapshot of the process-wide sharded failed-trial memo store
 * (cumulative counters since process start; Session reports per-compile
 * deltas). An eviction-heavy snapshot means the working set exceeds the
 * capacity and trials are being re-run that could have been memo hits.
 */
struct TrialMemoStats
{
    uint64_t hits = 0;        ///< lookups answered from the store
    uint64_t misses = 0;      ///< lookups that found nothing
    uint64_t evictions = 0;   ///< entries dropped by shard-cap flushes
    uint64_t entries = 0;     ///< current occupancy across all shards
    uint64_t shards = 0;      ///< number of striped-lock shards
    uint64_t maxShardEntries = 0; ///< most loaded shard's occupancy
    uint64_t capacity = 0;    ///< total entry capacity across shards
};

/** Read the current trial-memo store counters (thread-safe). */
TrialMemoStats trialMemoStats();

/**
 * Drop every memo entry (thread-safe). The cumulative hit, miss and
 * eviction counters are left alone. The next compile runs cold: it
 * has no memo hits, which makes it the reference a warm compile must
 * match byte for byte.
 */
void clearTrialMemo();

/** Outcome of tryMerge. */
struct MergeOutcome
{
    bool success = false;
    MergeKind kind = MergeKind::Simple;
    std::string reason; ///< failure reason when !success
};

/** One recorded tryMerge attempt (MergeOptions::recordMergeTrace). */
struct MergeTraceEntry
{
    BlockId hb = kNoBlock;
    BlockId s = kNoBlock;
    bool success = false;
    MergeKind kind = MergeKind::Simple;
    std::string reason;

    bool
    operator==(const MergeTraceEntry &o) const
    {
        return hb == o.hb && s == o.s && success == o.success &&
               kind == o.kind && reason == o.reason;
    }
};

/**
 * Stateful merge engine for one function. Tracks pristine loop bodies
 * across unrolls and accumulates the m/t/u/p statistics of Table 1
 * (merges / tail duplications / unrolled / peeled iterations).
 */
class MergeEngine
{
  public:
    MergeEngine(Function &fn, const MergeOptions &options);

    /** Try to merge successor @p s into block @p hb. */
    MergeOutcome tryMerge(BlockId hb, BlockId s);

    /**
     * Cheap pre-check mirroring the paper's LegalMerge: is @p s a
     * structurally admissible candidate (ignoring size constraints)?
     */
    bool legalMerge(BlockId hb, BlockId s, std::string *why = nullptr);

    const StatSet &stats() const { return counters; }
    Function &function() { return fn; }

    /** Cached analyses for this function, kept current across merges. */
    AnalysisManager &analyses() { return am; }

    /** Recorded attempts (empty unless recordMergeTrace is set). */
    const std::vector<MergeTraceEntry> &trace() const
    {
        return mergeTrace;
    }

    /**
     * Monotonic count of CFG mutations this engine has committed
     * (merges, block splits, and in-place stabilizations on declined
     * splits). expandBlock reuses its candidate descriptors verbatim
     * while this is unchanged: failed trials touch nothing a
     * descriptor depends on.
     */
    uint64_t mutationEpoch() const { return mutations; }

  private:
    /** Persistent scratch arena reused across trials. */
    struct TrialScratch
    {
        BasicBlock scratch{kNoBlock, ""};
        BasicBlock sourceCopy{kNoBlock, ""};
        std::vector<BlockId> reads; ///< blocks whose live-in it reads
        BitVector liveOut;
        CombineScratch combine;
        BlockOptScratch opt;
        BlockAnalysisScratch legal;
    };

    /** Existence/structure checks shared by legalMerge and tryMerge. */
    bool blocksExist(BlockId hb, BlockId s, std::string *why) const;

    /** Classify what committing the merge will do. */
    MergeKind classify(BlockId hb, BlockId s);

    /** Kind-dependent legality (head-duplication gating). */
    bool legalForKind(BlockId s, MergeKind kind, std::string *why);

    /** Append to the trace (when enabled) and pass @p outcome through. */
    MergeOutcome record(BlockId hb, BlockId s, MergeOutcome outcome);

    /**
     * Liveness solved as far as the trial's reads (arena.reads) need;
     * both of a trial's queries go through here and are timed into
     * usMergeLiveness.
     */
    const Liveness &trialLiveness();

    /** Content hash identifying a trial (see DESIGN.md §10). */
    uint64_t trialKey(BlockId hb, BlockId s, MergeKind kind,
                      const BasicBlock &hb_block,
                      const BasicBlock &source);

    /** Merge one trial's optimizer pass stats into the counters. */
    void addOptStats(const OptPassStats &stats);

    Function &fn;
    MergeOptions opts;
    AnalysisManager am;
    StatSet counters;
    std::vector<MergeTraceEntry> mergeTrace;

    /** Original loop bodies saved at first unroll, by header id. */
    std::map<BlockId, std::unique_ptr<BasicBlock>> pristineBodies;

    uint64_t mutations = 0;
    TrialScratch arena;
};

} // namespace chf

#endif // CHF_HYPERBLOCK_MERGE_H
