/**
 * @file
 * Lowering from the TinyC AST to the predicated RISC-like IR.
 *
 * Mirrors the Scale front end of the paper's Fig. 6: all calls are
 * inlined (recursion is rejected), globals live in the flat memory
 * image, and the result is a single-function CFG of basic blocks ready
 * for scalar optimization and hyperblock formation.
 */

#ifndef CHF_FRONTEND_LOWERING_H
#define CHF_FRONTEND_LOWERING_H

#include "frontend/ast.h"
#include "ir/program.h"

namespace chf {

/**
 * Lower @p unit into a runnable Program whose entry function is
 * `main`. Throws RecoverableError on semantic errors (unknown names,
 * recursion, arity mismatches, calls nested deeper than 24) with
 * source location.
 */
Program lowerToIR(const TranslationUnit &unit);

} // namespace chf

#endif // CHF_FRONTEND_LOWERING_H
