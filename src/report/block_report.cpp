#include "report/block_report.h"

#include <algorithm>

namespace chf {

BlockReport
analyzeBlocks(const Function &fn, const TargetModel &target,
              const FuncSimResult *run)
{
    BlockReport report;
    size_t buckets = target.maxInsts / 16 + 1;
    report.sizeHistogram.assign(buckets, 0);

    double static_fill = 0.0;
    size_t predicated = 0;

    double weighted_fill = 0.0;
    double weight = 0.0;

    for (BlockId id : fn.blockIds()) {
        const BasicBlock *bb = fn.block(id);
        size_t size = bb->size();
        ++report.blocks;
        report.totalInsts += size;
        report.maxBlockSize = std::max(report.maxBlockSize, size);

        double fill = std::min(
            1.0, static_cast<double>(size) /
                     static_cast<double>(target.maxInsts));
        static_fill += fill;
        size_t bucket = std::min(buckets - 1, size / 16);
        report.sizeHistogram[bucket]++;

        for (const auto &inst : bb->insts) {
            if (inst.pred.valid())
                ++predicated;
        }

        if (run && id < run->blockCounts.size() &&
            run->blockCounts[id] > 0) {
            double w = static_cast<double>(run->blockCounts[id]);
            weighted_fill += fill * w;
            weight += w;
        }
    }

    if (report.blocks > 0) {
        report.staticUtilization = static_fill / report.blocks;
        report.meanBlockSize =
            static_cast<double>(report.totalInsts) / report.blocks;
        report.predicatedFraction =
            report.totalInsts == 0
                ? 0.0
                : static_cast<double>(predicated) / report.totalInsts;
    }
    if (weight > 0.0)
        report.dynamicUtilization = weighted_fill / weight;
    if (run && run->instsFetched > 0) {
        report.usefulFetchFraction =
            static_cast<double>(run->instsExecuted) /
            static_cast<double>(run->instsFetched);
    }
    return report;
}

} // namespace chf
