/**
 * @file
 * Fanout insertion (paper Fig. 6).
 *
 * TRIPS instructions encode at most two consumer targets; a value with
 * more consumers needs a tree/chain of mov instructions to replicate
 * it. This pass inserts those moves after each over-subscribed
 * producer and rewires the extra consumers, adding both the
 * instruction count and the serialization latency the size estimator
 * predicted during formation.
 *
 * One pass per block: each producer's in-block consumers are collected
 * once, and every over-subscribed producer's balanced mov tree is
 * emitted right after it in pre-order (left mov, left subtree, right
 * mov, right subtree). A block takes at most 4096 split steps; past
 * that its remaining trees stay unsplit. See DESIGN.md §14.
 */

#ifndef CHF_BACKEND_FANOUT_H
#define CHF_BACKEND_FANOUT_H

#include "ir/function.h"

namespace chf {

/** Maximum consumers a producer can target directly. */
constexpr size_t kMaxTargets = 2;

/**
 * Insert fanout moves everywhere, in O(registers + instructions).
 * @return total moves.
 */
size_t insertFanoutFunction(Function &fn);

} // namespace chf

#endif // CHF_BACKEND_FANOUT_H
