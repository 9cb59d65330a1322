/**
 * @file
 * Execution profiles: per-branch frequencies and loop trip-count
 * histograms. Profiles are produced by the functional simulator on the
 * basic-block program; branch frequencies are annotated onto branch
 * instructions, where the transforms maintain them through duplication.
 */

#ifndef CHF_ANALYSIS_PROFILE_H
#define CHF_ANALYSIS_PROFILE_H

#include <cstdint>
#include <map>
#include <vector>

#include "ir/function.h"

namespace chf {

class LoopInfo;

/**
 * Per-loop-header histogram of observed trip counts. The peeling policy
 * uses these to pick how many iterations to peel (paper §5, "Loop peeling
 * and unrolling").
 */
class TripCountHistograms
{
  public:
    /** Record one completed visit to the loop with @p trips iterations. */
    void
    record(BlockId header, uint64_t trips)
    {
        histograms[header][trips]++;
    }

    /** True if the loop at @p header was ever observed. */
    bool
    has(BlockId header) const
    {
        return histograms.count(header) > 0;
    }

    /** Mean trip count; zero if never observed. */
    double meanTrips(BlockId header) const;

    /**
     * Smallest k such that at least @p fraction of observed loop visits
     * ran at most k iterations. Used to choose a peel factor.
     */
    uint64_t tripQuantile(BlockId header, double fraction) const;

    const std::map<uint64_t, uint64_t> &
    histogram(BlockId header) const
    {
        static const std::map<uint64_t, uint64_t> empty;
        auto it = histograms.find(header);
        return it == histograms.end() ? empty : it->second;
    }

  private:
    std::map<BlockId, std::map<uint64_t, uint64_t>> histograms;
};

/** Profile bundle for a function: the loop trip histograms (branch
 *  frequencies live on the branch instructions themselves). */
struct ProfileData
{
    TripCountHistograms trips;
};

/**
 * Write branch frequencies from @p profile onto the branch instructions
 * of @p fn. Frequencies are per-branch-instruction fire counts collected
 * by the functional simulator, so multiple branches to the same target
 * are distinguished.
 */
void annotateBranchFrequencies(
    Function &fn,
    const std::vector<std::vector<uint64_t>> &branch_fires);

/**
 * Derive trip-count histograms from an edge trace. @p trace is the
 * sequence of executed block ids; requires loop analysis for header and
 * membership queries.
 */
TripCountHistograms computeTripHistograms(
    const std::vector<BlockId> &trace, const LoopInfo &loops);

} // namespace chf

#endif // CHF_ANALYSIS_PROFILE_H
