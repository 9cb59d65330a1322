/**
 * @file
 * A whole program: one function (all calls inlined by the front end) and
 * an initial memory image holding globals.
 */

#ifndef CHF_IR_PROGRAM_H
#define CHF_IR_PROGRAM_H

#include <vector>

#include "ir/function.h"
#include "sim/memory.h"

namespace chf {

/** A runnable unit for the simulators. */
struct Program
{
    Function fn;
    MemoryImage memory;

    /** Default argument values bound to fn.argRegs on simulation. */
    std::vector<int64_t> defaultArgs;

    /** Deep copy (Function holds its blocks through unique_ptrs). */
    Program clone() const;
};

} // namespace chf

#endif // CHF_IR_PROGRAM_H
