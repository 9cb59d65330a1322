/**
 * @file
 * Value numbering with constant folding, algebraic simplification, and
 * redundant-load elimination.
 *
 * The paper's Optimize step applies "dominator-based global value
 * numbering" to the merged block. Because convergent formation merges
 * whole blocks, the scope that matters is the single merged hyperblock,
 * so this pass implements predicate-aware local value numbering over a
 * block; optimizeFunction applies it to every block.
 *
 * Predicate awareness: two instructions are redundant only if their
 * opcode, operand value numbers, and predicate (register value number
 * plus polarity) all match; the later one is rewritten to a predicated
 * move from the earlier destination. A predicated write always gives
 * its destination a fresh value number, since the old value may flow
 * through.
 */

#ifndef CHF_TRANSFORM_GVN_H
#define CHF_TRANSFORM_GVN_H

#include <vector>

#include "ir/function.h"
#include "support/stamped_table.h"

namespace chf {

/**
 * Reusable working storage for valueNumberBlock: its register and slot
 * tables reset in O(1) per block and keep their capacity across merge
 * trials. Besides the register->VN table this holds every formerly
 * per-call map of the pass (constant<->VN, expression->holder, boolean
 * facts), so a warm call allocates nothing.
 */
struct GvnScratch
{
    StampedTable<uint32_t> regVN;

    /**
     * Per-value-number side data, indexed by VN. Not stamped: value
     * numbers are assigned per call starting from 1, and every VN used
     * in a call is minted by that call's fresh(), which resets its
     * entry -- stale rows from earlier calls are never read.
     */
    struct VnInfo
    {
        uint8_t hasConst = 0;
        uint8_t isBool = 0;
        uint8_t hasBoolExpr = 0;
        int64_t constVal = 0;
        Opcode beOp = Opcode::Mov; ///< recorded bool expr: op(a, b)
        uint32_t beA = 0, beB = 0;
        Vreg beHolder = kNoVreg; ///< register holding `a` at record time
    };
    std::vector<VnInfo> vn;

    /**
     * Open-addressed hash tables replacing the per-call std::maps
     * (constant -> VN; expression -> holding register). A slot is
     * occupied when it is present in this block's generation; the load
     * factor stays under 1/2 so probes terminate. Nothing is ever
     * deleted within a block, so linear probing stays consistent.
     */
    struct ConstSlot
    {
        int64_t key = 0;
        uint32_t vn = 0;
    };
    StampedTable<ConstSlot> constSlots;

    struct ExprSlot
    {
        Opcode op = Opcode::Mov;
        uint8_t predPolarity = 0;
        uint32_t a = 0, b = 0, c = 0, pred = 0;
        uint64_t memEpoch = 0;
        Vreg holderReg = kNoVreg;
        uint32_t holderVN = 0;
    };
    StampedTable<ExprSlot> exprSlots;
};

/**
 * Value-number @p bb in place.
 *
 * @return number of instructions simplified (folded, strength-reduced,
 *         or rewritten to moves).
 */
size_t valueNumberBlock(BasicBlock &bb, GvnScratch &scratch);

/**
 * Dominator-based global value numbering (the pass the paper's
 * Optimize step names). Scoped expression tables are pushed down the
 * dominator tree; to stay sound without SSA, only expressions whose
 * destination and register operands are single-assignment in the whole
 * function participate -- exactly the subset whose values are
 * path-independent wherever they are visible. A redundant computation
 * in a dominated block becomes a move from the dominating holder.
 * Every block it rewrote is appended to @p changed, once.
 * @return number of instructions rewritten.
 */
size_t valueNumberFunctionDominator(Function &fn,
                                    std::vector<BlockId> &changed);

} // namespace chf

#endif // CHF_TRANSFORM_GVN_H
