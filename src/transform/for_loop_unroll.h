/**
 * @file
 * Front-end for-loop unrolling (paper Fig. 6 / §9 "For-loop unrolling").
 *
 * Scale unrolls counted for loops early, before hyperblock formation,
 * removing the intermediate exit tests; while-loop unrolling is left to
 * head duplication, which must predicate each iteration. This pass
 * handles the classical case: a two-block natural loop (test head +
 * straight-line latch body) with a single induction update i += c
 * (c > 0) and an invariant bound, tested with < or <=.
 *
 * The loop is rewritten as a guarded main loop executing `factor`
 * iterations per test plus a post-conditioning (epilogue) loop for the
 * remainder -- the residual test head duplication later merges into the
 * unrolled body (paper §7.1).
 */

#ifndef CHF_TRANSFORM_FOR_LOOP_UNROLL_H
#define CHF_TRANSFORM_FOR_LOOP_UNROLL_H

#include "analysis/profile.h"
#include "ir/function.h"

namespace chf {

/**
 * Unroll all eligible counted loops of @p fn by 4. The profile (may
 * be empty) supplies trip counts, mirroring Scale's use of data from
 * previous compilations: a loop whose profiled mean trip count is
 * below 8 is skipped, and so is one whose unrolled head and body would
 * exceed 100 instructions. @return number of loops unrolled.
 */
size_t unrollForLoops(Function &fn, const ProfileData &profile);

} // namespace chf

#endif // CHF_TRANSFORM_FOR_LOOP_UNROLL_H
