#include "analysis/profile.h"

#include <algorithm>

#include "analysis/loops.h"
#include "support/fatal.h"

namespace chf {

double
TripCountHistograms::meanTrips(BlockId header) const
{
    const auto &hist = histogram(header);
    uint64_t visits = 0, trips = 0;
    for (const auto &[t, n] : hist) {
        visits += n;
        trips += t * n;
    }
    return visits == 0 ? 0.0 : static_cast<double>(trips) / visits;
}

uint64_t
TripCountHistograms::tripQuantile(BlockId header, double fraction) const
{
    const auto &hist = histogram(header);
    uint64_t visits = 0;
    for (const auto &[t, n] : hist)
        visits += n;
    if (visits == 0)
        return 0;
    uint64_t threshold =
        static_cast<uint64_t>(fraction * static_cast<double>(visits));
    uint64_t seen = 0;
    for (const auto &[t, n] : hist) {
        seen += n;
        if (seen >= threshold)
            return t;
    }
    return hist.rbegin()->first;
}

void
annotateBranchFrequencies(
    Function &fn, const std::vector<std::vector<uint64_t>> &branch_fires)
{
    for (BlockId id : fn.blockIds()) {
        BasicBlock *bb = fn.block(id);
        const std::vector<uint64_t> *fires =
            id < branch_fires.size() ? &branch_fires[id] : nullptr;
        for (size_t i = 0; i < bb->insts.size(); ++i) {
            Instruction &inst = bb->insts[i];
            if (!inst.isBranch())
                continue;
            uint64_t count =
                fires && i < fires->size() ? (*fires)[i] : 0;
            inst.freq = static_cast<double>(count);
        }
    }
}

TripCountHistograms
computeTripHistograms(const std::vector<BlockId> &trace,
                      const LoopInfo &loops)
{
    // One pass over the trace. A loop activates at its header and
    // counts each header visit as a trip; it records and deactivates at
    // the first block outside it. Natural loops that share a block
    // nest, and a loop's header dominates its blocks, so the active
    // loops are always a chain, innermost on top: a block outside the
    // top loop pops loops until one contains it, and a header pushes
    // (or is already) the top.
    const std::vector<Loop> &all = loops.loops();
    constexpr uint32_t kNoLoop = ~uint32_t(0);
    BlockId max_id = 0;
    for (const Loop &loop : all) {
        for (BlockId b : loop.blocks)
            max_id = std::max(max_id, b);
    }
    const size_t words = size_t(max_id) / 64 + 1;
    std::vector<uint64_t> member(all.size() * words, 0);
    std::vector<uint32_t> headed(size_t(max_id) + 1, kNoLoop);
    for (uint32_t l = 0; l < all.size(); ++l) {
        headed[all[l].header] = l;
        for (BlockId b : all[l].blocks)
            member[l * words + b / 64] |= uint64_t(1) << (b % 64);
    }
    auto contains = [&](uint32_t l, BlockId b) {
        return b <= max_id && (member[l * words + b / 64] >> (b % 64)) & 1;
    };

    TripCountHistograms result;
    std::vector<uint64_t> trips(all.size(), 0);
    std::vector<uint32_t> open;
    // A top-tested loop executes its header once more than the body;
    // report body iterations.
    auto close = [&] {
        uint32_t l = open.back();
        open.pop_back();
        result.record(all[l].header, trips[l] - 1);
    };
    for (BlockId b : trace) {
        while (!open.empty() && !contains(open.back(), b))
            close();
        uint32_t l = b <= max_id ? headed[b] : kNoLoop;
        if (l == kNoLoop)
            continue;
        if (open.empty() || open.back() != l) {
            open.push_back(l);
            trips[l] = 0;
        }
        ++trips[l];
    }
    while (!open.empty())
        close();
    return result;
}

} // namespace chf
