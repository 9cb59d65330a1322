/**
 * @file
 * Path-based VLIW block selection heuristic (Mahlke et al. [17, 18])
 * implemented inside convergent formation via a prepass (paper §5,
 * "Local and global heuristics" / "Dependence height").
 *
 * At each seed the policy enumerates acyclic paths through the region,
 * prioritizes them by execution frequency penalized by dependence
 * height and resource consumption (VLIW blocks are statically
 * scheduled, so the longest path's height bounds the whole block), and
 * only admits blocks lying on paths whose priority is within a
 * threshold of the best path. Rarely-taken or long-dependence paths are
 * excluded -- the behaviour that hurts on an EDGE target (Table 2).
 */

#ifndef CHF_HYPERBLOCK_VLIW_POLICY_H
#define CHF_HYPERBLOCK_VLIW_POLICY_H

#include <map>

#include "hyperblock/policy.h"

namespace chf {

class LoopInfo;

/** Tuning knobs of the VLIW heuristic. */
struct VliwPolicyOptions
{
    /** Admit blocks on paths with priority >= bestPriority * this. */
    double inclusionThreshold = 0.10;

    size_t maxPaths = 128;
    size_t maxPathLength = 24;

    /** Exponent of the dependence-height penalty. */
    double heightPenalty = 1.0;

    /** Exponent of the resource (instruction count) penalty. */
    double resourcePenalty = 0.5;
};

/** Mahlke-style path-based selection. */
class VliwPolicy : public Policy
{
  public:
    explicit VliwPolicy(const VliwPolicyOptions &options = {})
        : opts(options)
    {
    }

    const char *name() const override { return "vliw-path"; }

    /** Enumerates the seed's paths over the loop analysis in
     *  @p analyses. */
    void beginBlock(AnalysisManager &analyses, BlockId seed) override;

    int select(const Function &fn, BlockId hb,
               const std::vector<MergeCandidate> &candidates) override;

  private:
    void buildAdmitted(const Function &fn, const LoopInfo &loops,
                       BlockId seed);

    VliwPolicyOptions opts;

    /** Priority of each block admitted for the current seed. */
    std::map<BlockId, double> admitted;
};

/** Longest dependence chain through a block, in cycles. */
double blockDependenceHeight(const BasicBlock &bb);

} // namespace chf

#endif // CHF_HYPERBLOCK_VLIW_POLICY_H
