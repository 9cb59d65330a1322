#include "hyperblock/merge.h"

#include <algorithm>
#include <array>
#include <mutex>
#include <unordered_map>

#include "analysis/liveness.h"
#include "analysis/loops.h"
#include "support/hash.h"
#include "support/timer.h"
#include "transform/cfg_utils.h"
#include "transform/reverse_if_convert.h"

namespace chf {

const char *
mergeKindName(MergeKind kind)
{
    switch (kind) {
      case MergeKind::Simple: return "simple";
      case MergeKind::TailDup: return "tail-dup";
      case MergeKind::Peel: return "peel";
      case MergeKind::Unroll: return "unroll";
    }
    return "?";
}

MergeEngine::MergeEngine(Function &fn, const MergeOptions &options)
    : fn(fn), opts(options), am(fn)
{
}

void
MergeEngine::addOptStats(const OptPassStats &stats)
{
    counters.add("usOptCopyProp", static_cast<int64_t>(stats.usCopyProp));
    counters.add("usOptGvn", static_cast<int64_t>(stats.usGvn));
    counters.add("usOptPredOpt", static_cast<int64_t>(stats.usPredOpt));
    counters.add("usOptDce", static_cast<int64_t>(stats.usDce));
    counters.add("usOptCoalesce",
                 static_cast<int64_t>(stats.usCoalesce));
}

namespace {

/**
 * Natural-loop header test from dominators and predecessors alone: a
 * block is a header iff some reachable predecessor's edge into it is a
 * back edge. Equivalent to LoopInfo::isLoopHeader but avoids building
 * (and re-building, after every committed merge) the loop bodies the
 * classifier never looks at.
 */
bool
isNaturalLoopHeader(const DominatorTree &dom, const PredecessorMap &preds,
                    BlockId s)
{
    if (s >= preds.size())
        return false;
    for (BlockId p : preds[s]) {
        if (dom.reachable(p) && dom.dominates(s, p))
            return true;
    }
    return false;
}

/** Stream one instruction into the trial hash, freq bits included. */
void
hashInstruction(Hash64 &h, const Instruction &inst)
{
    h.u8(static_cast<uint8_t>(inst.op));
    h.u32(inst.dest);
    for (const Operand &src : inst.srcs) {
        h.u8(static_cast<uint8_t>(src.kind));
        h.u32(src.reg);
        h.u64(static_cast<uint64_t>(src.imm));
    }
    h.u32(inst.pred.reg);
    h.u8(inst.pred.onTrue ? 1 : 0);
    h.u32(inst.target);
    h.f64(inst.freq);
}

void
hashBlockContents(Hash64 &h, const BasicBlock &bb)
{
    h.u32(bb.id());
    h.u64(bb.insts.size());
    for (const Instruction &inst : bb.insts)
        hashInstruction(h, inst);
}

/** A memoized failed trial: the reason it failed and how many vregs
 *  the failing combine allocated (replayed on hit). */
struct FailedTrial
{
    std::string reason;
    uint32_t vregsBurned = 0;
};

/** Total entry capacity; one entry is ~100 bytes, so this caps
 *  resident memo memory near 100 MB. */
constexpr size_t kTrialMemoCapacity = size_t(1) << 20;

/** Striped-lock shard count. 64 shards keep lock hold times (a hash
 *  probe) uncontended even with every Session worker storing failures
 *  at once; the shard index comes from the key's top bits so FNV's
 *  well-mixed high half spreads entries evenly. */
constexpr size_t kTrialMemoShards = 64;
constexpr size_t kTrialMemoShardCap = kTrialMemoCapacity / kTrialMemoShards;

/**
 * Process-wide failed-trial store, sharded. The key covers every input
 * a trial reads (contents, kind, constraint config, live-out context),
 * so an entry recorded by one engine answers identically for any other
 * -- including engines on other Session worker threads, which is why
 * every shard is mutex-guarded. Hits never change output bytes (the
 * stored reason and vreg burn are exactly what re-running the trial
 * would produce), so racy hit/miss interleavings stay deterministic.
 * Overflow flushes one shard, not the whole store, and the counters
 * make eviction thrashing visible (trialMemoStats / Session totals /
 * pass_speed JSON).
 */
struct TrialMemoShard
{
    std::mutex mu;
    std::unordered_map<uint64_t, FailedTrial> map;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
};

struct TrialMemoStore
{
    std::array<TrialMemoShard, kTrialMemoShards> shards;

    TrialMemoShard &
    shardFor(uint64_t key)
    {
        return shards[(key >> 58) % kTrialMemoShards];
    }
};

TrialMemoStore &
trialMemo()
{
    static TrialMemoStore store;
    return store;
}

bool
lookupFailedTrial(uint64_t key, FailedTrial *out)
{
    TrialMemoShard &shard = trialMemo().shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
        ++shard.misses;
        return false;
    }
    ++shard.hits;
    *out = it->second;
    return true;
}

void
storeFailedTrial(uint64_t key, FailedTrial entry)
{
    TrialMemoShard &shard = trialMemo().shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.map.size() >= kTrialMemoShardCap) {
        shard.evictions += shard.map.size();
        shard.map.clear();
    }
    shard.map.emplace(key, std::move(entry));
}

} // namespace

TrialMemoStats
trialMemoStats()
{
    TrialMemoStats out;
    out.shards = kTrialMemoShards;
    out.capacity = kTrialMemoShardCap * kTrialMemoShards;
    for (TrialMemoShard &shard : trialMemo().shards) {
        std::lock_guard<std::mutex> lock(shard.mu);
        out.hits += shard.hits;
        out.misses += shard.misses;
        out.evictions += shard.evictions;
        out.entries += shard.map.size();
        out.maxShardEntries =
            std::max<uint64_t>(out.maxShardEntries, shard.map.size());
    }
    return out;
}

void
clearTrialMemo()
{
    for (TrialMemoShard &shard : trialMemo().shards) {
        std::lock_guard<std::mutex> lock(shard.mu);
        shard.map.clear();
    }
}

MergeKind
MergeEngine::classify(BlockId hb, BlockId s)
{
    if (hb == s)
        return MergeKind::Unroll;

    const DominatorTree &dom = am.dominators();
    const PredecessorMap &preds = am.predecessors();

    bool back_edge = dom.reachable(hb) && dom.dominates(s, hb);
    bool header = isNaturalLoopHeader(dom, preds, s);

    if (preds[s].size() == 1 && preds[s][0] == hb && !back_edge)
        return MergeKind::Simple;
    if (header && !back_edge)
        return MergeKind::Peel;
    // Per Fig. 5: the back-edge-to-another-header case falls through to
    // tail duplication.
    return MergeKind::TailDup;
}

bool
MergeEngine::blocksExist(BlockId hb, BlockId s, std::string *why) const
{
    auto fail = [&](const std::string &reason) {
        if (why)
            *why = reason;
        return false;
    };

    if (hb >= fn.blockTableSize() || !fn.block(hb))
        return fail("hyperblock does not exist");
    if (s >= fn.blockTableSize() || !fn.block(s))
        return fail("successor does not exist");
    if (s == fn.entry())
        return fail("cannot duplicate the entry block");
    if (branchesTo(*fn.block(hb), s).empty())
        return fail("not a successor");
    return true;
}

bool
MergeEngine::legalForKind(BlockId s, MergeKind kind, std::string *why)
{
    auto fail = [&](const std::string &reason) {
        if (why)
            *why = reason;
        return false;
    };

    if (!opts.enableHeadDuplication) {
        if (kind == MergeKind::Peel || kind == MergeKind::Unroll)
            return fail("head duplication disabled");
        // Without head duplication the classical algorithm keeps loop
        // headers as hyperblock seeds rather than growing into them.
        if (isNaturalLoopHeader(am.dominators(), am.predecessors(), s))
            return fail("loop header (head duplication disabled)");
    }
    return true;
}

bool
MergeEngine::legalMerge(BlockId hb, BlockId s, std::string *why)
{
    if (!blocksExist(hb, s, why))
        return false;
    return legalForKind(s, classify(hb, s), why);
}

MergeOutcome
MergeEngine::record(BlockId hb, BlockId s, MergeOutcome outcome)
{
    if (opts.recordMergeTrace) {
        MergeTraceEntry entry;
        entry.hb = hb;
        entry.s = s;
        entry.success = outcome.success;
        entry.kind = outcome.kind;
        entry.reason = outcome.reason;
        mergeTrace.push_back(std::move(entry));
    }
    return outcome;
}

uint64_t
MergeEngine::trialKey(BlockId hb, BlockId s, MergeKind kind,
                      const BasicBlock &hb_block, const BasicBlock &source)
{
    Hash64 h;
    h.u32(hb);
    h.u32(s);
    h.u8(static_cast<uint8_t>(kind));

    // Target configuration: a memo entry must never answer for a
    // differently-configured engine. Every TargetModel knob the trial
    // reads participates (the registry name does not -- two models
    // with equal knobs behave identically and may share entries).
    h.u64(opts.target.maxInsts);
    h.u64(opts.target.maxMemOps);
    h.u64(opts.target.lsqDepth);
    h.u64(opts.target.numRegBanks);
    h.u64(opts.target.maxReadsPerBank);
    h.u64(opts.target.maxWritesPerBank);
    h.u64(opts.target.maxBranches);
    h.u64(opts.sizeHeadroom);
    h.u8(opts.optimizeDuringMerge ? 1 : 0);
    h.u8(opts.enableHeadDuplication ? 1 : 0);
    h.u8(opts.enableBlockSplitting ? 1 : 0);

    // Contents of both participants, branch frequencies included
    // (entryShare feeds the appended branch frequencies, which feed
    // the size estimate only through instruction identity -- but a
    // committed merge elsewhere can change either block's insts or
    // freqs, and must change the key).
    hashBlockContents(h, hb_block);
    hashBlockContents(h, source);

    // Live-out context of the would-be combined block: the union the
    // trial takes is over the live-ins of the combined block's
    // targets, which are HB's non-consumed targets plus the source's
    // targets. A merge committed elsewhere can change those live-ins
    // without touching HB or S, so they are part of the key.
    const Liveness &liveness = am.liveness();
    bool self_loop = false;
    auto hash_targets = [&](const BasicBlock &b, bool skip_source) {
        for (const Instruction &inst : b.insts) {
            if (inst.op != Opcode::Br)
                continue;
            if (skip_source && inst.target == source.id())
                continue;
            if (inst.target == hb) {
                self_loop = true;
                continue;
            }
            h.u32(inst.target);
            h.bits(liveness.liveIn(inst.target));
        }
    };
    hash_targets(hb_block, true);
    hash_targets(source, false);
    h.u8(self_loop ? 1 : 0);
    if (self_loop)
        h.bits(liveness.liveIn(hb));

    return h.digest();
}

MergeOutcome
MergeEngine::tryMerge(BlockId hb, BlockId s)
{
    MergeOutcome outcome;
    std::string why;
    if (!blocksExist(hb, s, &why)) {
        outcome.reason = why;
        return record(hb, s, outcome);
    }

    // Classify once; legality and the commit path share the result.
    MergeKind kind = classify(hb, s);
    if (!legalForKind(s, kind, &why)) {
        outcome.reason = why;
        return record(hb, s, outcome);
    }

    BasicBlock *hb_block = fn.block(hb);
    BasicBlock *s_block = fn.block(s);

    // Choose the source for the appended code: for unrolling, the
    // pristine saved body (first unroll saves it); otherwise S itself.
    const BasicBlock *source = s_block;
    if (kind == MergeKind::Unroll) {
        auto it = pristineBodies.find(hb);
        if (it != pristineBodies.end()) {
            // The pristine body can reference blocks that were since
            // simple-merged away; if so it is stale -- drop it and fall
            // back to the current body (coarser, power-of-two-style
            // unrolling, the limitation the pristine copy normally
            // avoids).
            bool stale = false;
            for (BlockId succ : it->second->successors()) {
                if (succ >= fn.blockTableSize() || !fn.block(succ))
                    stale = true;
            }
            if (stale)
                pristineBodies.erase(it);
            else
                source = it->second.get();
        }
    }

    // --- Consult the failed-trial memo ---
    const uint64_t memo_key = trialKey(hb, s, kind, *hb_block, *source);
    FailedTrial hit;
    if (lookupFailedTrial(memo_key, &hit)) {
        counters.add("trialsMemoHit");
        fn.skipVregs(hit.vregsBurned);
        outcome.reason = std::move(hit.reason);
        return record(hb, s, outcome);
    }

    const uint32_t vregs_before = fn.numVregs();
    counters.add("trialsRun");

    // --- Scratch-space combine (Copy / Combine / Optimize) ---
    BasicBlock &scratch = arena.scratch;
    scratch.assignFrom(*hb_block);
    arena.sourceCopy.assignFrom(*source);

    double share = kind == MergeKind::Simple
                       ? 1.0
                       : entryShare(*hb_block, *source);
    {
        ScopedStatTimer timer(counters, "usMergeCombine");
        if (!combineBlocks(fn, scratch, arena.sourceCopy, share,
                           &arena.combine)) {
            outcome.reason = "no branch to successor";
            return record(hb, s, outcome);
        }
    }

    // Live-out of the merged block: union of the live-ins of its
    // targets, plus its own upward-exposed uses if it loops back to
    // itself (the next iteration's reads). The query comes after
    // combineBlocks so the cached analysis covers the predicate
    // registers if-conversion just allocated.
    Timer live_timer;
    const Liveness &liveness = am.liveness();
    counters.add("usMergeLiveness", live_timer.elapsedMicros());
    BitVector &live_out = arena.liveOut;
    live_out.resize(liveness.universe());
    live_out.reset();
    bool self_loop = false;
    for (BlockId succ : scratch.successors()) {
        if (succ == hb) {
            self_loop = true;
            continue;
        }
        live_out.unionWith(liveness.liveIn(succ));
    }
    if (self_loop) {
        blockUsesInto(scratch, liveness.universe(), arena.legal.uses,
                      arena.legal.killed);
        live_out.unionWith(arena.legal.uses);
        live_out.unionWith(liveness.liveIn(hb));
    }

    if (opts.optimizeDuringMerge) {
        ScopedStatTimer timer(counters, "usMergeOptimize");
        OptPassStats pass_stats;
        optimizeBlock(fn, scratch, live_out, &arena.opt, &pass_stats);
        addOptStats(pass_stats);
    }

    // --- LegalBlock: structural constraints on the result ---
    Timer legal_timer;
    const std::string illegal =
        checkBlockLegal(fn, scratch, live_out, opts.target,
                        opts.sizeHeadroom, &arena.legal);
    counters.add("usMergeLegal", legal_timer.elapsedMicros());

    if (illegal.empty()) {
        // --- Commit: transform the CFG ---
        if (kind == MergeKind::Unroll && !pristineBodies.count(hb)) {
            auto pristine = std::make_unique<BasicBlock>(
                hb_block->id(), hb_block->name());
            pristine->insts = hb_block->insts;
            pristineBodies[hb] = std::move(pristine);
        }

        std::vector<BlockId> hb_old_succs = hb_block->successors();
        hb_block->insts.swap(scratch.insts);
        if (kind != MergeKind::Simple)
            am.branchesRewritten(hb, hb_old_succs);

        switch (kind) {
          case MergeKind::Simple: {
            // One combined event so the analysis manager can
            // recognize the splice and patch dominators/loops
            // instead of invalidating.
            std::vector<BlockId> s_succs = s_block->successors();
            fn.removeBlock(s);
            am.blockAbsorbed(hb, s, hb_old_succs, s_succs);
            break;
          }
          case MergeKind::TailDup:
            // Frequencies only: no analysis depends on them.
            scaleBranchFreqs(*s_block, 1.0 - share);
            counters.add("tailDuplicated");
            break;
          case MergeKind::Peel:
            scaleBranchFreqs(*s_block, 1.0 - share);
            counters.add("peeledIterations");
            break;
          case MergeKind::Unroll:
            counters.add("unrolledIterations");
            break;
        }
        counters.add("blocksMerged");
        ++mutations;

        outcome.success = true;
        outcome.kind = kind;
        return record(hb, s, outcome);
    }

    // --- Failure path ---
    // Basic-block splitting (paper §9): a too-large single-predecessor
    // candidate can donate its first piece.
    bool split_path_taken = false;
    if (opts.enableBlockSplitting && kind == MergeKind::Simple &&
        illegal == blockSizeReason(opts.target, opts.sizeHeadroom) &&
        s_block->size() >= 16 &&
        hb_block->size() + 8 < opts.target.maxInsts) {
        // splitBlockAt mutates the function whether or not it splits
        // (it stabilizes branch predicates in place first), so trials
        // that reach here are never memoized.
        split_path_taken = true;
        size_t room = opts.target.maxInsts - opts.sizeHeadroom -
                      hb_block->size();
        size_t piece = std::min(room / 2, s_block->size() / 2);
        BlockId rest = splitBlockAt(fn, s, piece);
        if (rest != kNoBlock) {
            // A new block exists; no incremental patch applies.
            am.invalidateAll();
            ++mutations;
            counters.add("blocksSplitForMerge");
            // Retry: S is now its small first piece.
            MergeOutcome retried = tryMerge(hb, s);
            if (retried.success)
                return retried;
        } else {
            // splitBlockAt stabilizes branch predicates in place even
            // when it declines to split.
            am.instructionsRewritten(s);
            ++mutations;
        }
    }

    if (!split_path_taken) {
        FailedTrial entry;
        entry.reason = illegal;
        entry.vregsBurned = fn.numVregs() - vregs_before;
        storeFailedTrial(memo_key, std::move(entry));
    }

    outcome.reason = illegal;
    return record(hb, s, outcome);
}

} // namespace chf
