/**
 * @file
 * Block-selection policies for convergent hyperblock formation
 * (paper §5). The algorithm is policy-agnostic: ExpandBlock presents
 * the candidate successors of the growing hyperblock and the policy
 * picks which to attempt next, or stops.
 */

#ifndef CHF_HYPERBLOCK_POLICY_H
#define CHF_HYPERBLOCK_POLICY_H

#include <memory>
#include <vector>

#include "ir/function.h"

namespace chf {

class AnalysisManager;

/** One candidate successor the policy can choose. */
struct MergeCandidate
{
    BlockId block = kNoBlock;

    /** Expected executions flowing from HB into the candidate. */
    double entryFreq = 0.0;

    /** FIFO order in which the candidate was discovered. */
    int discoveryOrder = 0;

    /** Merging requires code duplication (side entrances exist). */
    bool needsDup = false;

    /** Candidate is a loop header (peel/unroll merge). */
    bool isLoopHeader = false;

    /** HB -> candidate is a back edge (unrolling when self). */
    bool isBackEdge = false;

    /** Candidate's current instruction count. */
    size_t blockSize = 0;

    /** Candidate's total profiled execution frequency. */
    double candFreq = 0.0;

    /** The hyperblock's own execution frequency. */
    double hbFreq = 0.0;

    /** Merging would pull code from outside HB's innermost loop into
     *  it (post-loop code executed falsely on every iteration). */
    bool leavesLoop = false;
};

/** Block-selection policy interface. */
class Policy
{
  public:
    virtual ~Policy() = default;

    virtual const char *name() const = 0;

    /**
     * Called when expansion of a new seed hyperblock begins. Policies
     * that need loop or predecessor information query @p analyses
     * (the engine's cached, kept-current snapshot) instead of
     * rebuilding it.
     */
    virtual void
    beginBlock(AnalysisManager &analyses, BlockId seed)
    {
        (void)analyses;
        (void)seed;
    }

    /**
     * Pick the next candidate to attempt (index into @p candidates) or
     * -1 to stop expanding this hyperblock.
     */
    virtual int select(const Function &fn, BlockId hb,
                       const std::vector<MergeCandidate> &candidates) = 0;
};

/**
 * Breadth-first merging (the best EDGE heuristic of Table 2): take
 * candidates in discovery order so diamonds close and conditional
 * branches disappear, while limiting the size of blocks that must be
 * tail-duplicated.
 */
class BreadthFirstPolicy : public Policy
{
  public:
    explicit BreadthFirstPolicy(size_t tail_dup_limit = 48,
                                double min_freq_ratio = 0.0,
                                double dup_share_floor = 0.4)
        : tailDupLimit(tail_dup_limit), minFreqRatio(min_freq_ratio),
          dupShareFloor(dup_share_floor)
    {
    }

    const char *name() const override { return "breadth-first"; }

    int select(const Function &fn, BlockId hb,
               const std::vector<MergeCandidate> &candidates) override;

  private:
    size_t tailDupLimit;
    double minFreqRatio;
    double dupShareFloor;
};

/**
 * Depth-first merging: always follow the most frequent outgoing path,
 * accepting more tail duplication (paper §5).
 */
class DepthFirstPolicy : public Policy
{
  public:
    const char *name() const override { return "depth-first"; }

    int select(const Function &fn, BlockId hb,
               const std::vector<MergeCandidate> &candidates) override;
};

/** Factory helpers. */
std::unique_ptr<Policy> makeBreadthFirstPolicy();
std::unique_ptr<Policy> makeDepthFirstPolicy();

} // namespace chf

#endif // CHF_HYPERBLOCK_POLICY_H
