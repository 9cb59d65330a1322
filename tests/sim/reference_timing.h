/**
 * @file
 * The per-instance timing walk that runTiming replaced, kept as the
 * reference it must match on every simulated statistic. It places every
 * block up front with scheduleFunction, reads Liveness for each fired
 * instruction, and rebuilds a std::map of in-block values, a std::map
 * of store times and a tile_free vector for every executed block, and
 * evaluates every operand from the IR (reference_machine.h).
 */

#ifndef CHF_TESTS_SIM_REFERENCE_TIMING_H
#define CHF_TESTS_SIM_REFERENCE_TIMING_H

#include <algorithm>
#include <deque>
#include <map>
#include <vector>

#include "analysis/liveness.h"
#include "backend/scheduler.h"
#include "reference_machine.h"
#include "sim/timing_sim.h"
#include "support/fatal.h"

namespace chf::reference {

inline TimingResult
runTiming(const Program &program, const TimingConfig &config = {},
          const std::vector<int64_t> &args = {})
{
    const std::map<BlockId, Placement> placement =
        scheduleFunction(program.fn, config.grid);
    const Function &fn = program.fn;
    TimingResult result;

    Machine m(program, args);

    NextBlockPredictor predictor(config.predictorBits);

    // A block commits when its architectural outputs are produced:
    // live-out register writes, stores, and the branch. Dead or
    // speculative (falsely-speculated-path) computation does not gate
    // commit -- the EDGE early-completion property (paper §5).
    Liveness liveness(fn);

    // When each register's current value becomes available (absolute
    // cycles). Register-file reads add regReadLatency at consumption.
    std::vector<double> reg_ready(fn.numVregs(), 0.0);

    // Commit times of in-flight blocks (window occupancy).
    std::deque<double> in_flight;

    double next_fetch_start = 0.0;
    double last_commit = 0.0;
    bool returned = false;
    BlockId current = fn.entry();

    while (!returned) {
        const BasicBlock *bb = fn.block(current);
        CHF_ASSERT(bb, "timing simulation reached a removed block");
        if (result.blocksExecuted >= config.maxBlocks)
            fatal("timing simulation exceeded block budget");

        const Placement *tiles = &placement.at(current);

        // --- Fetch/map: window slot + dispatch pipelining ---
        double fetch_start = next_fetch_start;
        if (static_cast<int>(in_flight.size()) >=
            config.maxInFlightBlocks) {
            fetch_start = std::max(fetch_start, in_flight.front());
            in_flight.pop_front();
        }
        double map_done = fetch_start + config.fetchMapLatency;

        // --- Dataflow execution of the fired instructions ---
        // Completion time of values produced in this block instance.
        std::map<Vreg, std::pair<double, int>> local; // (done, tile)
        std::vector<double> tile_free(config.grid.numTiles(), 0.0);
        // Store completion times by exact address: the load/store
        // queue with LSIDs and dependence prediction resolves
        // independent accesses, so only true (same-address)
        // dependences serialize.
        std::map<int64_t, double> store_done;
        double outputs_done = map_done;
        double branch_resolve = map_done;
        BlockId next = kNoBlock;
        size_t fired_branches = 0;

        ++result.blocksExecuted;

        for (size_t i = 0; i < bb->insts.size(); ++i) {
            const Instruction &inst = bb->insts[i];
            if (!m.predicateHolds(inst.pred))
                continue;
            ++result.instsExecuted;
            int tile = (*tiles)[i];

            double eligible =
                map_done +
                static_cast<double>(i / config.fetchBandwidth);

            // Operand arrival: in-block producers pay hop latency;
            // cross-block values pay the register read latency.
            double ready = eligible;
            inst.forEachUse([&](Vreg v) {
                auto lp = local.find(v);
                if (lp != local.end()) {
                    int hops = tileDistance(lp->second.second, tile,
                                            config.grid);
                    ready = std::max(ready, lp->second.first + hops);
                } else {
                    ready = std::max(ready, reg_ready[v] +
                                                config.regReadLatency);
                }
            });
            if (opcodeIsMemory(inst.op)) {
                int64_t addr = m.value(inst.srcs[0]) +
                               m.value(inst.srcs[1]);
                auto st = store_done.find(addr);
                if (st != store_done.end())
                    ready = std::max(ready, st->second);
            }

            double issue = std::max(ready, tile_free[tile]);
            tile_free[tile] = issue + 1.0;
            double done = issue + opcodeLatency(inst.op);

            // Functional effect.
            switch (inst.op) {
              case Opcode::Load:
                m.regs[inst.dest] = m.memory.read(
                    m.value(inst.srcs[0]) + m.value(inst.srcs[1]));
                break;
              case Opcode::Store: {
                int64_t addr = m.value(inst.srcs[0]) +
                               m.value(inst.srcs[1]);
                m.memory.write(addr, m.value(inst.srcs[2]));
                store_done[addr] = done;
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

            if (inst.hasDest()) {
                local[inst.dest] = {done, tile};
                // Forward to younger blocks as produced.
                reg_ready[inst.dest] = done;
                if (inst.dest < liveness.liveOut(current).size() &&
                    liveness.liveOut(current).test(inst.dest)) {
                    outputs_done = std::max(outputs_done, done);
                }
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
        in_flight.push_back(commit);

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

} // namespace chf::reference

#endif // CHF_TESTS_SIM_REFERENCE_TIMING_H
