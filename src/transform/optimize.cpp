#include "transform/optimize.h"

#include "analysis/liveness.h"
#include "support/timer.h"
#include "transform/copy_prop.h"
#include "transform/dce.h"
#include "transform/gvn.h"
#include "transform/pred_opt.h"

namespace chf {

size_t
optimizeBlock(BasicBlock &bb, const BitVector &live_out,
              BlockOptScratch &t, OptPassStats *stats)
{
    size_t total = 0;
    // Two rounds: predicate merging exposes value-numbering hits and
    // vice versa; gains beyond two rounds are negligible.
    for (int round = 0; round < 2; ++round) {
        size_t changes = 0;
        Timer timer;
        int64_t last = 0;
        auto lap = [&](uint64_t OptPassStats::*slot) {
            if (!stats)
                return;
            int64_t now = timer.elapsedMicros();
            stats->*slot += static_cast<uint64_t>(now - last);
            last = now;
        };
        changes += copyPropagateBlock(bb, t.copyProp);
        lap(&OptPassStats::usCopyProp);
        changes += valueNumberBlock(bb, t.gvn);
        lap(&OptPassStats::usGvn);
        changes += optimizePredicates(bb, live_out, t.predOpt);
        lap(&OptPassStats::usPredOpt);
        changes += eliminateDeadCode(bb, live_out, t.dce);
        lap(&OptPassStats::usDce);
        changes += coalesceMoves(bb, live_out, t.coalesce);
        lap(&OptPassStats::usCoalesce);
        total += changes;
        if (changes == 0)
            break;
    }
    return total;
}

size_t
optimizeFunction(Function &fn)
{
    // No pass adds, removes or retargets a branch (GVN only drops an
    // always-true guard), so the block list and the predecessor map
    // stay current for the whole call, and one Liveness, patched
    // exactly after the passes that edit blocks, answers every query.
    const std::vector<BlockId> ids = fn.blockIds();
    const PredecessorMap preds = fn.predecessors();
    Liveness live(fn);
    BlockOptScratch t;
    BitVector live_out;
    std::vector<BlockId> dirty; // edited since liveness was last patched

    // One per-block pass over every block; blocks it changed go dirty.
    auto sweep = [&](auto &&pass) {
        size_t total = 0;
        for (BlockId id : ids) {
            if (size_t n = pass(*fn.block(id))) {
                dirty.push_back(id);
                total += n;
            }
        }
        return total;
    };
    // The live-out sets a pass reads are the ones at its start.
    auto out = [&](const BasicBlock &bb) -> const BitVector & {
        live.liveOutOf(bb, live_out);
        return live_out;
    };
    auto patch = [&] {
        if (!dirty.empty())
            live.update(fn, dirty, preds);
        dirty.clear();
    };

    size_t total = 0;
    for (int round = 0; round < 3; ++round) {
        size_t changes = 0;
        changes += sweep([&](BasicBlock &bb) {
            return copyPropagateBlock(bb, t.copyProp);
        });
        changes += sweep([&](BasicBlock &bb) {
            return valueNumberBlock(bb, t.gvn);
        });
        changes += valueNumberFunctionDominator(fn, dirty);
        patch();
        changes += sweep([&](BasicBlock &bb) {
            return optimizePredicates(bb, out(bb), t.predOpt);
        });
        patch();
        // DCE to its fixed point: removing a use in one block can make
        // a def in another dead.
        auto dce = [&](BasicBlock &bb) {
            return eliminateDeadCode(bb, out(bb), t.dce);
        };
        while (size_t removed = sweep(dce)) {
            changes += removed;
            patch();
        }
        changes += sweep([&](BasicBlock &bb) {
            return coalesceMoves(bb, out(bb), t.coalesce);
        });
        total += changes;
        if (changes == 0)
            break;
    }
    return total;
}

} // namespace chf
