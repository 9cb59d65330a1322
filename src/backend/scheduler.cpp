#include "backend/scheduler.h"

#include <algorithm>
#include <array>
#include <cstdlib>

namespace chf {

int
tileDistance(int a, int b, const SchedulerOptions &options)
{
    int ax = a % options.gridWidth, ay = a / options.gridWidth;
    int bx = b % options.gridWidth, by = b / options.gridWidth;
    return std::abs(ax - bx) + std::abs(ay - by);
}

Placement
scheduleBlock(const BasicBlock &bb, const SchedulerOptions &options,
              PlacementScratch &t)
{
    int tiles = options.numTiles();
    Placement placement(bb.size(), 0);
    t.used.assign(tiles, 0);
    t.tileFree.assign(tiles, 0.0);
    t.producers.clear();

    for (size_t i = 0; i < bb.insts.size(); ++i) {
        const Instruction &inst = bb.insts[i];

        // The ready time and tile of each operand's in-block producer
        // (register-file reads add nothing), resolved once per
        // instruction rather than once per candidate tile.
        std::array<const PlacementScratch::Producer *, 4> in;
        size_t num_in = 0;
        inst.forEachUse([&](Vreg v) {
            if (const PlacementScratch::Producer *p = t.producers.find(v))
                in[num_in++] = p;
        });

        // Evaluate each tile: the instruction can issue once all its
        // operands have arrived (producer done + hop latency) and the
        // tile is free. Prefer non-full tiles; among them the earliest
        // start, breaking ties toward lower occupancy to spread load.
        // Once a block larger than the grid has filled every tile, the
        // same rule picks among all tiles.
        auto better = [&](int tile, double start, int than,
                          double than_start) {
            return than < 0 || start < than_start ||
                   (start == than_start && t.used[tile] < t.used[than]);
        };
        int best_tile = -1, any_tile = -1;
        double best_start = 0.0, any_start = 0.0;
        for (int tile = 0; tile < tiles; ++tile) {
            double start = t.tileFree[tile];
            for (size_t k = 0; k < num_in; ++k) {
                double arrival =
                    in[k]->done + tileDistance(in[k]->tile, tile, options);
                start = std::max(start, arrival);
            }
            if (better(tile, start, any_tile, any_start)) {
                any_tile = tile;
                any_start = start;
            }
            if (t.used[tile] < options.slotsPerTile &&
                better(tile, start, best_tile, best_start)) {
                best_tile = tile;
                best_start = start;
            }
        }
        if (best_tile < 0) {
            best_tile = any_tile;
            best_start = any_start;
        }

        placement[i] = best_tile;
        t.used[best_tile]++;
        double done = best_start + opcodeLatency(inst.op);
        t.tileFree[best_tile] = best_start + 1.0; // one issue per cycle
        if (inst.hasDest())
            t.producers.touch(inst.dest) = {best_tile, done};
    }
    return placement;
}

std::map<BlockId, Placement>
scheduleFunction(const Function &fn, const SchedulerOptions &options)
{
    std::map<BlockId, Placement> out;
    PlacementScratch scratch;
    for (BlockId id : fn.blockIds())
        out[id] = scheduleBlock(*fn.block(id), options, scratch);
    return out;
}

} // namespace chf
