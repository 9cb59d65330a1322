/**
 * @file
 * The std::map-keyed per-block walks that the stamped register tables
 * replaced, kept as the references they must match: legality's fanout
 * and register read/write counts (analyzeBlock), the null-write walk
 * shared by
 * normalizeOutputs and predictNullWrites, and tile placement
 * (scheduleBlock), which looked each operand's producer up once per
 * candidate tile. The assembly writer's reference is reference_asm.h.
 */

#ifndef CHF_TESTS_BACKEND_REFERENCE_WALKS_H
#define CHF_TESTS_BACKEND_REFERENCE_WALKS_H

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "analysis/liveness.h"
#include "backend/scheduler.h"
#include "hyperblock/constraints.h"

namespace chf::reference {

/** Legality's fanout-move prediction, counted in a map. */
inline size_t
fanoutMoves(const BasicBlock &bb)
{
    size_t moves = 0;
    std::map<Vreg, size_t> consumers;
    auto flush = [&](Vreg v) {
        auto it = consumers.find(v);
        if (it != consumers.end()) {
            if (it->second > 2)
                moves += it->second - 2;
            consumers.erase(it);
        }
    };
    for (const auto &inst : bb.insts) {
        inst.forEachUse([&](Vreg v) { consumers[v] += 1; });
        if (inst.hasDest()) {
            flush(inst.dest);
            consumers[inst.dest] = 0;
        }
    }
    for (const auto &[v, count] : consumers) {
        if (count > 2)
            moves += count - 2;
    }
    return moves;
}

/** The null-write walk: emit(reg, last writer's predicate). */
template <typename Fn>
size_t
forEachNullWrite(const BasicBlock &bb, const BitVector &live_out, Fn emit)
{
    std::map<Vreg, std::vector<Predicate>> partial;
    std::map<Vreg, bool> has_unpred_writer;
    for (const auto &inst : bb.insts) {
        if (!inst.hasDest() || inst.dest >= live_out.size() ||
            !live_out.test(inst.dest)) {
            continue;
        }
        if (!inst.pred.valid())
            has_unpred_writer[inst.dest] = true;
        else
            partial[inst.dest].push_back(inst.pred);
    }

    size_t compensated = 0;
    for (const auto &[reg, preds] : partial) {
        if (has_unpred_writer.count(reg))
            continue;
        if (preds.size() == 2 && preds[0].reg == preds[1].reg &&
            preds[0].onTrue != preds[1].onTrue) {
            continue;
        }
        emit(reg, preds.back());
        ++compensated;
    }
    return compensated;
}

inline size_t
predictNullWrites(const BasicBlock &bb, const BitVector &live_out)
{
    return forEachNullWrite(bb, live_out, [](Vreg, const Predicate &) {});
}

inline size_t
normalizeOutputsFunction(Function &fn)
{
    Liveness liveness(fn);
    BitVector live_out;
    size_t total = 0;
    for (BlockId id : fn.blockIds()) {
        BasicBlock &bb = *fn.block(id);
        liveness.liveOutOf(bb, live_out);
        total += forEachNullWrite(
            bb, live_out, [&](Vreg reg, const Predicate &last) {
                Instruction null_write = Instruction::unary(
                    Opcode::Mov, reg, Operand::makeReg(reg));
                null_write.pred = Predicate::onReg(last.reg, !last.onTrue);
                bb.append(null_write);
            });
    }
    return total;
}

/**
 * analyzeBlock with the map-based fanout and null-write counts and
 * bitvector counts of the register reads and writes.
 */
inline BlockResources
analyzeBlock(const Function &fn, const BasicBlock &bb,
             const BitVector &live_out)
{
    BlockResources res;
    res.insts = bb.size();
    res.memOps = bb.memoryOpCount();
    uint32_t nv = std::max(fn.numVregs(),
                           static_cast<uint32_t>(live_out.size()));
    BitVector uses, killed, defs(nv);
    blockUsesInto(bb, nv, uses, killed);
    res.regReads = uses.count();
    for (const auto &inst : bb.insts) {
        if (inst.hasDest())
            defs.set(inst.dest);
        if (inst.op == Opcode::Br)
            res.branches++;
    }
    defs.intersectWith(live_out);
    res.regWrites = defs.count();
    res.fanoutMoves = fanoutMoves(bb);
    res.nullWrites = predictNullWrites(bb, live_out);
    return res;
}

/** Tile placement with a map of producers, read once per tile. */
inline Placement
scheduleBlock(const BasicBlock &bb, const SchedulerOptions &options = {})
{
    int tiles = options.numTiles();
    Placement placement(bb.size(), 0);
    std::vector<size_t> used(tiles, 0);
    std::vector<double> tile_free(tiles, 0.0);
    std::map<Vreg, std::pair<double, int>> producer;

    for (size_t i = 0; i < bb.insts.size(); ++i) {
        const Instruction &inst = bb.insts[i];
        int best_tile = -1, any_tile = -1;
        double best_start = 0.0, any_start = 0.0;
        for (int t = 0; t < tiles; ++t) {
            bool full = used[t] >= options.slotsPerTile;
            double start = tile_free[t];
            inst.forEachUse([&](Vreg v) {
                auto it = producer.find(v);
                if (it != producer.end()) {
                    double arrival =
                        it->second.first +
                        tileDistance(it->second.second, t, options);
                    start = std::max(start, arrival);
                }
            });
            // Every tile full: the earliest start over all tiles.
            if (any_tile < 0 || start < any_start ||
                (start == any_start && used[t] < used[any_tile])) {
                any_tile = t;
                any_start = start;
            }
            if (best_tile < 0 && !full) {
                best_tile = t;
                best_start = start;
                continue;
            }
            if (!full &&
                (start < best_start ||
                 (start == best_start && used[t] < used[best_tile]))) {
                best_tile = t;
                best_start = start;
            }
        }
        if (best_tile < 0) {
            best_tile = any_tile;
            best_start = any_start;
        }

        placement[i] = best_tile;
        used[best_tile]++;
        double done = best_start + opcodeLatency(inst.op);
        tile_free[best_tile] = best_start + 1.0;
        if (inst.hasDest())
            producer[inst.dest] = {done, best_tile};
    }
    return placement;
}

} // namespace chf::reference

#endif // CHF_TESTS_BACKEND_REFERENCE_WALKS_H
