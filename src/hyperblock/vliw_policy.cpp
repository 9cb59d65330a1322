#include "hyperblock/vliw_policy.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "analysis/analysis_manager.h"
#include "analysis/loops.h"
#include "transform/cfg_utils.h"

namespace chf {

double
blockDependenceHeight(const BasicBlock &bb)
{
    std::map<Vreg, double> ready;
    double height = 0.0;
    for (const auto &inst : bb.insts) {
        double start = 0.0;
        inst.forEachUse([&](Vreg v) {
            auto it = ready.find(v);
            if (it != ready.end())
                start = std::max(start, it->second);
        });
        double done = start + opcodeLatency(inst.op);
        if (inst.hasDest())
            ready[inst.dest] = done;
        height = std::max(height, done);
    }
    return height;
}

namespace {

/** One enumerated path and its scheduling figures. */
struct PathInfo
{
    std::vector<BlockId> blocks;
    double freq = 0.0;   ///< expected executions of the full path
    double height = 0.0; ///< sum of block dependence heights
    double size = 0.0;   ///< total instructions
};

} // namespace

void
VliwPolicy::beginBlock(AnalysisManager &analyses, BlockId seed)
{
    admitted.clear();
    const Function &fn = analyses.function();
    if (!fn.block(seed))
        return;
    buildAdmitted(fn, analyses.loops(), seed);
}

void
VliwPolicy::buildAdmitted(const Function &fn, const LoopInfo &loops,
                          BlockId seed)
{
    // Enumerate acyclic paths from the seed by DFS over forward edges.
    std::vector<PathInfo> paths;
    struct Frame
    {
        BlockId block;
        double prob;
    };
    std::vector<BlockId> current;
    double seed_freq = std::max(fn.block(seed)->frequency(), 1.0);

    // Explicit DFS with path state.
    std::function<void(BlockId, double)> walk = [&](BlockId id,
                                                    double prob) {
        if (paths.size() >= opts.maxPaths)
            return;
        current.push_back(id);
        const BasicBlock *bb = fn.block(id);

        bool extended = false;
        if (current.size() < opts.maxPathLength) {
            double out_total = 0.0;
            for (BlockId succ : bb->successors())
                out_total += branchFreqTo(*bb, succ);
            for (BlockId succ : bb->successors()) {
                if (!fn.block(succ))
                    continue;
                if (loops.isBackEdge(id, succ))
                    continue; // stay acyclic
                if (std::find(current.begin(), current.end(), succ) !=
                    current.end()) {
                    continue;
                }
                double p = out_total > 0.0
                               ? branchFreqTo(*bb, succ) / out_total
                               : 0.0;
                extended = true;
                walk(succ, prob * p);
            }
        }
        if (!extended) {
            PathInfo info;
            info.blocks = current;
            info.freq = seed_freq * prob;
            for (BlockId b : current) {
                info.height += blockDependenceHeight(*fn.block(b));
                info.size += static_cast<double>(fn.block(b)->size());
            }
            paths.push_back(std::move(info));
        }
        current.pop_back();
    };
    walk(seed, 1.0);

    if (paths.empty())
        return;

    // Priorities: frequency penalized by height and resource use
    // relative to the best (smallest) path figures.
    double min_height = paths[0].height, min_size = paths[0].size;
    for (const auto &p : paths) {
        min_height = std::min(min_height, std::max(p.height, 1.0));
        min_size = std::min(min_size, std::max(p.size, 1.0));
    }

    double best_priority = 0.0;
    std::vector<double> priority(paths.size(), 0.0);
    for (size_t i = 0; i < paths.size(); ++i) {
        const auto &p = paths[i];
        double h = std::max(p.height, 1.0);
        double s = std::max(p.size, 1.0);
        priority[i] = p.freq *
                      std::pow(min_height / h, opts.heightPenalty) *
                      std::pow(min_size / s, opts.resourcePenalty);
        best_priority = std::max(best_priority, priority[i]);
    }

    // Admit blocks on paths within the threshold.
    for (size_t i = 0; i < paths.size(); ++i) {
        if (priority[i] < opts.inclusionThreshold * best_priority)
            continue;
        for (BlockId b : paths[i].blocks) {
            auto it = admitted.find(b);
            if (it == admitted.end() || it->second < priority[i])
                admitted[b] = priority[i];
        }
    }
}

int
VliwPolicy::select(const Function &fn, BlockId hb,
                   const std::vector<MergeCandidate> &candidates)
{
    (void)fn;
    (void)hb;
    int best = -1;
    double best_priority = -1.0;
    for (size_t i = 0; i < candidates.size(); ++i) {
        const MergeCandidate &c = candidates[i];
        // Classical VLIW hyperblock formation operates on acyclic
        // regions: loop growth is left to the separate unroller.
        if (c.isLoopHeader || c.isBackEdge)
            continue;
        auto it = admitted.find(c.block);
        if (it == admitted.end())
            continue; // excluded path
        if (it->second > best_priority) {
            best_priority = it->second;
            best = static_cast<int>(i);
        }
    }
    return best;
}

} // namespace chf
