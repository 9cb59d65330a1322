/**
 * @file
 * TRIPS-style assembly writer.
 *
 * An EDGE program "explicitly encode[s] dependences in a static
 * dataflow graph, using target form in source instructions rather than
 * writing to shared registers" (paper §2). This writer emits each
 * block in that target form:
 *
 *   .bbegin main$bb5          ; block header
 *     R[0]  read  $g17 > N[2,op0] N[5,op0]   ; register-file read
 *     N[2]  tlt   #1024 > N[3,pred]
 *     N[3]  bro_t main$bb5                   ; predicated branch
 *     N[5]  addi  #1 > W[0]
 *     W[0]  write $g17                       ; register-file write
 *   .bend
 *
 * Sources never name their inputs; producers name their consumers
 * (instruction id + operand slot). Upward-exposed registers become
 * read instructions, live-out writes become write instructions, so the
 * printed block shows exactly the architectural inputs/outputs the
 * TRIPS block format encodes. Run after fanout insertion if you want
 * every producer to have at most two targets.
 *
 * Emission is linear in function size: writeFunctionAsm solves
 * liveness once, every block reads its live-out set from that one
 * solve, and each block's producer and read numbers live in one
 * register-indexed StampedTable shared by the whole call, so a block
 * resets it in O(1). The text is appended into one string,
 * returned exactly sized (DESIGN.md §14, which also lists the byte
 * order rules).
 */

#ifndef CHF_BACKEND_ASM_WRITER_H
#define CHF_BACKEND_ASM_WRITER_H

#include <string>

#include "ir/function.h"

namespace chf {

/** Emit the whole function, entry block first, from one Liveness. */
std::string writeFunctionAsm(const Function &fn);

} // namespace chf

#endif // CHF_BACKEND_ASM_WRITER_H
