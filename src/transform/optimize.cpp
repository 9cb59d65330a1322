#include "transform/optimize.h"

#include "analysis/liveness.h"
#include "support/timer.h"
#include "transform/copy_prop.h"
#include "transform/dce.h"
#include "transform/gvn.h"
#include "transform/pred_opt.h"

namespace chf {

size_t
optimizeBlock(Function &fn, BasicBlock &bb, const BitVector &live_out,
              BlockOptScratch *scratch, OptPassStats *stats)
{
    BlockOptScratch local;
    BlockOptScratch &t = scratch ? *scratch : local;
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
        changes += copyPropagateBlock(bb, &t.copyProp);
        lap(&OptPassStats::usCopyProp);
        changes += valueNumberBlock(fn, bb, &t.gvn);
        lap(&OptPassStats::usGvn);
        changes += optimizePredicates(bb, live_out, &t.predOpt);
        lap(&OptPassStats::usPredOpt);
        changes += eliminateDeadCode(bb, live_out, &t.dce);
        lap(&OptPassStats::usDce);
        changes += coalesceMoves(bb, live_out, &t.coalesce);
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
    size_t total = 0;
    for (int round = 0; round < 3; ++round) {
        size_t changes = 0;
        changes += copyPropagateFunction(fn);
        changes += valueNumberFunction(fn);
        changes += valueNumberFunctionDominator(fn);
        changes += optimizePredicatesFunction(fn);
        changes += eliminateDeadCodeFunction(fn);
        changes += coalesceMovesFunction(fn);
        total += changes;
        if (changes == 0)
            break;
    }
    return total;
}

} // namespace chf
