#include "sim/timing_sim.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <utility>

#include "analysis/liveness.h"
#include "sim/machine.h"
#include "support/fatal.h"

namespace chf {

namespace {

/**
 * Simulated time in whole cycles. Every latency, offset and penalty of
 * the model is a whole number of cycles, so times add and compare as
 * integers.
 */
using Cycle = int64_t;

/**
 * One instruction as the timing walk runs it: its micro-op, and the
 * timing fields decoded the first time its block executes.
 */
struct DecodedInst
{
    detail::MicroOp op;
    /** Cycles after the block's map before the instruction enters. */
    int eligibleOffset;
    int tile;
    int x, y; ///< the tile's grid column and row
    uint8_t latency;
    /** The registers it reads, predicate included (forEachUse). */
    std::array<Vreg, 4> uses;
    uint8_t numUses;
    bool memory;
    bool hasDest;
    /** The destination is live out of the block, so it gates commit. */
    bool liveOut;
};

/** When a register's latest value is ready, and where it was produced. */
struct RegTiming
{
    Cycle ready = 0;
    /** Block instance (1-based) that produced it; 0 when none has. */
    uint64_t instance = 0;
    int x = 0, y = 0;
};

/** Place @p bb and append one record per instruction to @p out. */
void
decodeBlock(const BasicBlock &bb, const Liveness &liveness,
            const TimingConfig &config, PlacementScratch &placement,
            detail::Machine &m, std::vector<DecodedInst> &out)
{
    Placement tiles = scheduleBlock(bb, config.grid, placement);
    for (size_t i = 0; i < bb.insts.size(); ++i) {
        const Instruction &inst = bb.insts[i];
        DecodedInst d{};
        d.op = m.decode(inst);
        d.eligibleOffset = static_cast<int>(i / config.fetchBandwidth);
        d.tile = tiles[i];
        d.x = d.tile % config.grid.gridWidth;
        d.y = d.tile / config.grid.gridWidth;
        d.latency = opcodeLatency(inst.op);
        inst.forEachUse([&](Vreg v) { d.uses[d.numUses++] = v; });
        d.memory = opcodeIsMemory(inst.op);
        d.hasDest = inst.hasDest();
        d.liveOut =
            d.hasDest && liveness.liveOutContains(bb.id(), inst.dest);
        out.push_back(d);
    }
}

} // namespace

TimingResult
runTiming(const Program &program, const TimingConfig &config,
          const std::vector<int64_t> &args)
{
    const Function &fn = program.fn;
    TimingResult result;
    CHF_ASSERT(config.maxInFlightBlocks >= 1,
               "the block window needs at least one slot");

    detail::Machine m(program, args);

    NextBlockPredictor predictor(config.predictorBits);

    // A block commits when its architectural outputs are produced:
    // live-out register writes, stores, and the branch. Dead or
    // speculative (falsely-speculated-path) computation does not gate
    // commit -- the EDGE early-completion property (paper §5). The
    // decode reads this once per block; execution reads the flag.
    Liveness liveness(fn);

    // Per-block decode, filled in as blocks first execute.
    std::vector<detail::BlockSpan> spans(fn.blockTableSize());
    std::vector<DecodedInst> decoded;
    decoded.reserve(fn.totalInsts());
    PlacementScratch placement;

    // When each register's current value becomes available, and its
    // producer. Register-file reads add regReadLatency at consumption;
    // a value produced in the running block instance instead pays one
    // cycle per hop from its producer's tile.
    std::vector<RegTiming> reg_timing(fn.numVregs());

    // Commit times of the last maxInFlightBlocks blocks: block k waits
    // for block k - maxInFlightBlocks to commit, in slot k % that. The
    // ring fills as blocks commit, so a wide window costs no more
    // memory than the blocks that ran.
    const size_t window_size = config.maxInFlightBlocks;
    std::vector<Cycle> window;

    // Per block instance, reset at each block: when each tile can
    // issue next, and store completion times by exact address (the
    // load/store queue with LSIDs and dependence prediction resolves
    // independent accesses, so only true same-address dependences
    // serialize; a later store to an address replaces the earlier).
    std::vector<Cycle> tile_free(config.grid.numTiles(), 0);
    std::vector<std::pair<int64_t, Cycle>> store_done;

    Cycle next_fetch_start = 0;
    Cycle last_commit = 0;
    uint64_t executed = 0;
    bool returned = false;
    BlockId current = fn.entry();

    while (!returned) {
        if (current >= spans.size() || !spans[current].decoded()) {
            const BasicBlock *bb = fn.block(current);
            CHF_ASSERT(bb, "timing simulation reached a removed block");
            spans[current].begin = static_cast<uint32_t>(decoded.size());
            decodeBlock(*bb, liveness, config, placement, m, decoded);
            spans[current].end = static_cast<uint32_t>(decoded.size());
        }
        if (result.blocksExecuted >= config.maxBlocks)
            fatal("timing simulation exceeded block budget");
        const DecodedInst *dec = decoded.data() + spans[current].begin;
        const uint32_t size = spans[current].size();

        // --- Fetch/map: window slot + dispatch pipelining ---
        Cycle fetch_start = next_fetch_start;
        const size_t slot = result.blocksExecuted % window_size;
        if (slot < window.size())
            fetch_start = std::max(fetch_start, window[slot]);
        const Cycle map_done = fetch_start + config.fetchMapLatency;

        // --- Dataflow execution of the fired instructions ---
        std::fill(tile_free.begin(), tile_free.end(), 0);
        store_done.clear();
        Cycle outputs_done = map_done;
        Cycle branch_resolve = map_done;
        BlockId next = kNoBlock;
        size_t fired_branches = 0;

        const uint64_t instance = ++result.blocksExecuted;

        for (uint32_t i = 0; i < size; ++i) {
            const DecodedInst &d = dec[i];
            if (!m.fires(d.op))
                continue;
            ++executed;

            // Operand arrival: in-block producers pay hop latency;
            // cross-block values pay the register read latency.
            Cycle ready = map_done + d.eligibleOffset;
            for (uint8_t u = 0; u < d.numUses; ++u) {
                const RegTiming &p = reg_timing[d.uses[u]];
                if (p.instance == instance) {
                    int hops = std::abs(p.x - d.x) + std::abs(p.y - d.y);
                    ready = std::max(ready, p.ready + hops);
                } else {
                    ready = std::max(ready, p.ready + config.regReadLatency);
                }
            }
            int64_t addr = 0;
            std::pair<int64_t, Cycle> *prior_store = nullptr;
            if (d.memory) {
                addr = m.address(d.op);
                for (auto &store : store_done) {
                    if (store.first == addr) {
                        prior_store = &store;
                        ready = std::max(ready, store.second);
                        break;
                    }
                }
            }

            const Cycle issue = std::max(ready, tile_free[d.tile]);
            tile_free[d.tile] = issue + 1;
            const Cycle done = issue + d.latency;

            if (d.hasDest) {
                // Forward to younger blocks as produced.
                reg_timing[d.op.dest] = {done, instance, d.x, d.y};
                if (d.liveOut)
                    outputs_done = std::max(outputs_done, done);
            }

            // Functional effect.
            if (detail::isPure(d.op.op)) {
                m.evaluate(d.op);
                continue;
            }
            switch (d.op.op) {
              case Opcode::Load:
                m.values[d.op.dest] = m.memory.read(addr);
                break;
              case Opcode::Store:
                m.memory.write(addr, m.values[d.op.src[2]]);
                if (prior_store)
                    prior_store->second = done;
                else
                    store_done.emplace_back(addr, done);
                outputs_done = std::max(outputs_done, done);
                break;
              case Opcode::Br:
                ++fired_branches;
                next = d.op.target;
                branch_resolve = done;
                outputs_done = std::max(outputs_done, done);
                break;
              default: // Ret
                ++fired_branches;
                returned = true;
                result.returnValue = m.values[d.op.src[0]];
                branch_resolve = done;
                outputs_done = std::max(outputs_done, done);
                break;
            }
        }

        if (fired_branches != 1) {
            panic(concat("timing sim: block bb", current, " fired ",
                         fired_branches, " branches"));
        }

        // --- Commit: in order, one block per cycle ---
        const Cycle commit =
            std::max(outputs_done + config.commitLatency, last_commit + 1);
        last_commit = commit;
        if (slot < window.size())
            window[slot] = commit;
        else
            window.push_back(commit);

        if (returned) {
            result.cycles = static_cast<uint64_t>(commit);
            break;
        }

        // --- Next-block prediction ---
        BlockId predicted = predictor.predict(current);
        predictor.update(current, next);
        ++result.branchPredictions;
        if (predicted == next) {
            next_fetch_start =
                fetch_start + config.blockDispatchInterval;
        } else {
            ++result.branchMispredicts;
            next_fetch_start = branch_resolve + config.mispredictPenalty;
        }

        current = next;
    }

    result.instsExecuted = executed;
    result.memoryHash = m.memory.hash();
    return result;
}

} // namespace chf
