#include "hyperblock/merge.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <mutex>
#include <unordered_map>

#include "analysis/liveness.h"
#include "analysis/loops.h"
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

/**
 * Word-at-a-time hash for the trial-memo key. Each 64-bit word goes
 * through one splitmix64-style multiply-xorshift step and digest()
 * runs the full splitmix64 finalizer, so the key's top bits (the memo
 * shard) are well mixed. A trial feeds it a few dozen instructions, so
 * this is several times cheaper than streaming the same fields byte by
 * byte through Hash64's FNV-1a.
 */
class TrialHash
{
  public:
    void
    word(uint64_t w)
    {
        state = (state ^ w) * 0x9e3779b97f4a7c15ull;
        state ^= state >> 32;
    }

    /**
     * The set bits of @p bv, then their count: equal sets hash equal on
     * padded and unpadded universes (the liveness universe grows by
     * policy, not by content).
     */
    void
    bits(const BitVector &bv)
    {
        uint64_t count = 0;
        bv.forEach([&](uint32_t b) {
            word(b);
            ++count;
        });
        word(count);
    }

    uint64_t
    digest() const
    {
        uint64_t z = state;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

  private:
    uint64_t state = 0x243f6a8885a308d3ull;
};

/** Pack one instruction into the trial hash, freq bits included. */
void
hashInstruction(TrialHash &h, const Instruction &inst)
{
    uint64_t head = static_cast<uint64_t>(inst.op);
    for (size_t i = 0; i < inst.srcs.size(); ++i)
        head |= static_cast<uint64_t>(inst.srcs[i].kind) << (8 + 2 * i);
    head |= static_cast<uint64_t>(inst.pred.onTrue ? 1 : 0) << 16;
    h.word(head | static_cast<uint64_t>(inst.dest) << 32);
    h.word(inst.pred.reg | static_cast<uint64_t>(inst.target) << 32);
    for (const Operand &src : inst.srcs) {
        h.word(src.reg);
        h.word(static_cast<uint64_t>(src.imm));
    }
    uint64_t freq;
    std::memcpy(&freq, &inst.freq, sizeof(freq));
    h.word(freq);
}

void
hashBlockContents(TrialHash &h, const BasicBlock &bb)
{
    h.word(bb.id() | static_cast<uint64_t>(bb.insts.size()) << 32);
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
 *  at once; the shard index comes from the key's top bits, which the
 *  key's final splitmix64 mix spreads evenly. */
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

const Liveness &
MergeEngine::trialLiveness()
{
    Timer timer;
    const Liveness &liveness = am.liveness(arena.reads);
    counters.add("usMergeLiveness", timer.elapsedMicros());
    return liveness;
}

uint64_t
MergeEngine::trialKey(BlockId hb, BlockId s, MergeKind kind,
                      const BasicBlock &hb_block, const BasicBlock &source)
{
    TrialHash h;
    h.word(hb | static_cast<uint64_t>(s) << 32);
    h.word(static_cast<uint64_t>(kind));

    // Target configuration: a memo entry must never answer for a
    // differently-configured engine. Every TargetModel knob the trial
    // reads participates (the registry name does not -- two models
    // with equal knobs behave identically and may share entries).
    h.word(opts.target.maxInsts);
    h.word(opts.target.maxMemOps);
    h.word(opts.target.lsqDepth);
    h.word(opts.target.numRegBanks);
    h.word(opts.target.maxReadsPerBank);
    h.word(opts.target.maxWritesPerBank);
    h.word(opts.target.maxBranches);
    h.word(opts.sizeHeadroom);
    h.word((opts.optimizeDuringMerge ? 1 : 0) |
           (opts.enableHeadDuplication ? 2 : 0) |
           (opts.enableBlockSplitting ? 4 : 0));

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
    const Liveness &liveness = trialLiveness();
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
            h.word(inst.target);
            h.bits(liveness.liveIn(inst.target));
        }
    };
    hash_targets(hb_block, true);
    hash_targets(source, false);
    h.word(self_loop ? 1 : 0);
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

    // The blocks whose live-in this trial reads: hb (for a self-loop)
    // and every branch target of hb and of the source. A pristine body
    // can still name a target hb no longer reaches, so the liveness
    // queries are bounded by all of them, not by hb alone.
    arena.reads.assign(1, hb);
    auto read_targets = [&](const BasicBlock &b) {
        for (const Instruction &inst : b.insts) {
            if (inst.op == Opcode::Br)
                arena.reads.push_back(inst.target);
        }
    };
    read_targets(*hb_block);
    read_targets(*source);

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
                           arena.combine)) {
            outcome.reason = "no branch to successor";
            return record(hb, s, outcome);
        }
    }

    // Live-out of the merged block: union of the live-ins of its
    // targets, plus its own upward-exposed uses if it loops back to
    // itself (the next iteration's reads). The query comes after
    // combineBlocks so the cached analysis covers the predicate
    // registers if-conversion just allocated.
    const Liveness &liveness = trialLiveness();
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
        optimizeBlock(fn, scratch, live_out, arena.opt, &pass_stats);
        addOptStats(pass_stats);
    }

    // --- LegalBlock: structural constraints on the result ---
    Timer legal_timer;
    const std::string illegal =
        checkBlockLegal(fn, scratch, live_out, opts.target,
                        opts.sizeHeadroom, arena.legal);
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
