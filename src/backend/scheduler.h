/**
 * @file
 * Spatial instruction scheduler: greedy placement of each block's
 * instructions onto the 4x4 grid of execution tiles (in the spirit of
 * SPDI scheduling for EDGE targets). The placement feeds the timing
 * model, which charges one cycle per Manhattan hop for every
 * producer-to-consumer operand transfer and serializes issue per tile.
 */

#ifndef CHF_BACKEND_SCHEDULER_H
#define CHF_BACKEND_SCHEDULER_H

#include <map>
#include <vector>

#include "ir/function.h"
#include "support/stamped_table.h"

namespace chf {

/** Grid configuration. */
struct SchedulerOptions
{
    int gridWidth = 4;
    int gridHeight = 4;
    size_t slotsPerTile = 8; ///< 128 insts / 16 tiles

    int numTiles() const { return gridWidth * gridHeight; }
};

/** Per-block tile assignment (index parallel to the block's insts). */
using Placement = std::vector<int>;

/** Manhattan distance between tiles in the grid. */
int tileDistance(int a, int b, const SchedulerOptions &options);

/**
 * Reusable storage for scheduleBlock: the ready time and tile of each
 * register's latest in-block producer, in a table a block resets in
 * O(1), and the per-tile occupancy and issue times. A caller placing
 * many blocks (scheduleFunction, one runTiming run) keeps one.
 */
struct PlacementScratch
{
    struct Producer
    {
        int tile = 0;
        double done = 0.0;
    };

    StampedTable<Producer> producers;
    std::vector<size_t> used;
    std::vector<double> tileFree;
};

/**
 * Place one block's instructions. Each instruction's in-block
 * producers are resolved once, then every tile is scored against them.
 */
Placement scheduleBlock(const BasicBlock &bb,
                        const SchedulerOptions &options,
                        PlacementScratch &scratch);

/** Place every block, from one scratch. */
std::map<BlockId, Placement> scheduleFunction(
    const Function &fn, const SchedulerOptions &options = {});

} // namespace chf

#endif // CHF_BACKEND_SCHEDULER_H
