#include "sim/timing_sim.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <limits>
#include <utility>

#include "analysis/liveness.h"
#include "sim/machine.h"
#include "support/fatal.h"

namespace chf {

namespace {

/**
 * What the timing walk needs of one instruction beyond its IR,
 * decoded the first time its block executes.
 */
struct DecodedInst
{
    /** Cycles after the block's map before the instruction enters. */
    double eligibleOffset;
    int tile;
    int x, y; ///< the tile's grid column and row
    int latency;
    /** The registers it reads, predicate included (forEachUse). */
    std::array<Vreg, 4> uses;
    uint8_t numUses;
    bool memory;
    bool hasDest;
    /** The destination is live out of the block, so it gates commit. */
    bool liveOut;
};

/** Where a register's latest value was produced. */
struct Producer
{
    /** Block instance (1-based) that produced it; 0 when none has. */
    uint64_t instance = 0;
    int x = 0, y = 0;
};

constexpr size_t kUndecoded = std::numeric_limits<size_t>::max();

/** Place @p bb and append one record per instruction to @p out. */
void
decodeBlock(const BasicBlock &bb, const BitVector &live_out,
            const TimingConfig &config, PlacementScratch &placement,
            std::vector<DecodedInst> &out)
{
    Placement tiles = scheduleBlock(bb, config.grid, placement);
    for (size_t i = 0; i < bb.insts.size(); ++i) {
        const Instruction &inst = bb.insts[i];
        DecodedInst d{};
        d.eligibleOffset = static_cast<double>(i / config.fetchBandwidth);
        d.tile = tiles[i];
        d.x = d.tile % config.grid.gridWidth;
        d.y = d.tile / config.grid.gridWidth;
        d.latency = opcodeLatency(inst.op);
        inst.forEachUse([&](Vreg v) { d.uses[d.numUses++] = v; });
        d.memory = opcodeIsMemory(inst.op);
        d.hasDest = inst.hasDest();
        d.liveOut = d.hasDest && inst.dest < live_out.size() &&
                    live_out.test(inst.dest);
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

    // Per-block decode, filled in as blocks first execute:
    // decoded[decoded_at[id] + i] is instruction i of block id.
    std::vector<size_t> decoded_at(fn.blockTableSize(), kUndecoded);
    std::vector<DecodedInst> decoded;
    PlacementScratch placement;

    // When each register's current value becomes available (absolute
    // cycles). Register-file reads add regReadLatency at consumption;
    // a value produced in the running block instance instead pays one
    // cycle per hop from its producer's tile.
    std::vector<double> reg_ready(fn.numVregs(), 0.0);
    std::vector<Producer> producer(fn.numVregs());

    // Commit times of the last maxInFlightBlocks blocks: block k waits
    // for block k - maxInFlightBlocks to commit, in slot k % that. The
    // ring fills as blocks commit, so a wide window costs no more
    // memory than the blocks that ran.
    const size_t window_size = config.maxInFlightBlocks;
    std::vector<double> window;

    // Per block instance, reset at each block: when each tile can
    // issue next, and store completion times by exact address (the
    // load/store queue with LSIDs and dependence prediction resolves
    // independent accesses, so only true same-address dependences
    // serialize; a later store to an address replaces the earlier).
    std::vector<double> tile_free(config.grid.numTiles(), 0.0);
    std::vector<std::pair<int64_t, double>> store_done;

    double next_fetch_start = 0.0;
    double last_commit = 0.0;
    bool returned = false;
    BlockId current = fn.entry();

    while (!returned) {
        const BasicBlock *bb = fn.block(current);
        CHF_ASSERT(bb, "timing simulation reached a removed block");
        if (result.blocksExecuted >= config.maxBlocks)
            fatal("timing simulation exceeded block budget");

        if (decoded_at[current] == kUndecoded) {
            decoded_at[current] = decoded.size();
            decodeBlock(*bb, liveness.liveOut(current), config, placement,
                        decoded);
        }
        const DecodedInst *dec = decoded.data() + decoded_at[current];

        // --- Fetch/map: window slot + dispatch pipelining ---
        double fetch_start = next_fetch_start;
        const size_t slot = result.blocksExecuted % window_size;
        if (slot < window.size())
            fetch_start = std::max(fetch_start, window[slot]);
        double map_done = fetch_start + config.fetchMapLatency;

        // --- Dataflow execution of the fired instructions ---
        std::fill(tile_free.begin(), tile_free.end(), 0.0);
        store_done.clear();
        double outputs_done = map_done;
        double branch_resolve = map_done;
        BlockId next = kNoBlock;
        size_t fired_branches = 0;

        const uint64_t instance = ++result.blocksExecuted;

        for (size_t i = 0; i < bb->insts.size(); ++i) {
            const Instruction &inst = bb->insts[i];
            if (!m.predicateHolds(inst.pred))
                continue;
            ++result.instsExecuted;
            const DecodedInst &d = dec[i];

            // Operand arrival: in-block producers pay hop latency;
            // cross-block values pay the register read latency.
            double ready = map_done + d.eligibleOffset;
            for (uint8_t u = 0; u < d.numUses; ++u) {
                const Vreg v = d.uses[u];
                const Producer &p = producer[v];
                if (p.instance == instance) {
                    int hops = std::abs(p.x - d.x) + std::abs(p.y - d.y);
                    ready = std::max(ready, reg_ready[v] + hops);
                } else {
                    ready = std::max(ready, reg_ready[v] +
                                                config.regReadLatency);
                }
            }
            int64_t addr = 0;
            std::pair<int64_t, double> *prior_store = nullptr;
            if (d.memory) {
                addr = m.value(inst.srcs[0]) + m.value(inst.srcs[1]);
                for (auto &store : store_done) {
                    if (store.first == addr) {
                        prior_store = &store;
                        ready = std::max(ready, store.second);
                        break;
                    }
                }
            }

            double issue = std::max(ready, tile_free[d.tile]);
            tile_free[d.tile] = issue + 1.0;
            double done = issue + d.latency;

            // Functional effect.
            switch (inst.op) {
              case Opcode::Load:
                m.regs[inst.dest] = m.memory.read(addr);
                break;
              case Opcode::Store: {
                m.memory.write(addr, m.value(inst.srcs[2]));
                if (prior_store)
                    prior_store->second = done;
                else
                    store_done.emplace_back(addr, done);
                outputs_done = std::max(outputs_done, done);
                break;
              }
              case Opcode::Br:
                ++fired_branches;
                next = inst.target;
                branch_resolve = done;
                outputs_done = std::max(outputs_done, done);
                break;
              case Opcode::Ret:
                ++fired_branches;
                returned = true;
                result.returnValue = m.value(inst.srcs[0]);
                branch_resolve = done;
                outputs_done = std::max(outputs_done, done);
                break;
              default:
                m.regs[inst.dest] =
                    evalOpcode(inst.op, m.value(inst.srcs[0]),
                               m.value(inst.srcs[1]));
                break;
            }

            if (d.hasDest) {
                producer[inst.dest] = {instance, d.x, d.y};
                // Forward to younger blocks as produced.
                reg_ready[inst.dest] = done;
                if (d.liveOut)
                    outputs_done = std::max(outputs_done, done);
            }
        }

        if (fired_branches != 1) {
            panic(concat("timing sim: block bb", current, " fired ",
                         fired_branches, " branches"));
        }

        // --- Commit: in order, one block per cycle ---
        double commit = std::max(outputs_done + config.commitLatency,
                                 last_commit + 1.0);
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

    result.memoryHash = m.memory.hash();
    return result;
}

} // namespace chf
