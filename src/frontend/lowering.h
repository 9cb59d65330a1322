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

#include <string>

#include "frontend/ast.h"
#include "ir/program.h"

namespace chf {

/** Lowering knobs. */
struct LoweringOptions
{
    /** Inlining depth limit; exceeding it is a fatal error. */
    int maxInlineDepth = 24;
};

/**
 * Lower @p unit into a runnable Program whose entry function is
 * @p entry_name. Throws RecoverableError on semantic errors (unknown
 * names, recursion, arity mismatches) with source location.
 */
Program lowerToIR(const TranslationUnit &unit,
                  const std::string &entry_name = "main",
                  const LoweringOptions &options = {});

} // namespace chf

#endif // CHF_FRONTEND_LOWERING_H
