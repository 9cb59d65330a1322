#include "transform/if_convert.h"

#include <algorithm>

#include "support/fatal.h"
#include "transform/cfg_utils.h"

namespace chf {

bool
writesReg(const BasicBlock &bb, Vreg reg)
{
    for (const auto &inst : bb.insts) {
        if (inst.hasDest() && inst.dest == reg)
            return true;
    }
    return false;
}

namespace {

/** How the entry condition of the merge is represented. */
enum class EntryKind
{
    Always,       ///< S executes on every path through HB
    DirectPred,   ///< reuse the branch's own (reg, polarity)
    Materialized, ///< a fresh 0/1 register computed from the branches
};

/** Emit reg = (src != 0) or (src == 0) capturing a predicate's truth. */
Instruction
materializeTruth(Vreg dest, Vreg src, bool on_true)
{
    return Instruction::binary(on_true ? Opcode::Tne : Opcode::Teq, dest,
                               Operand::makeReg(src),
                               Operand::makeImm(0));
}

/** Indices of HB's branches to @p target, into @p out (capacity reuse). */
void
collectConsumed(const BasicBlock &hb, BlockId target,
                std::vector<size_t> &out)
{
    out.clear();
    for (size_t i = 0; i < hb.insts.size(); ++i) {
        if (hb.insts[i].op == Opcode::Br &&
            hb.insts[i].target == target) {
            out.push_back(i);
        }
    }
}

/**
 * Classify the entry condition of the merge. Shared by combineBlocks
 * and combineVregCost so the register-cost prediction can never drift
 * from the transform.
 */
EntryKind
classifyEntry(const BasicBlock &hb, const BasicBlock &s,
              const std::vector<size_t> &consumed, Predicate &direct)
{
    EntryKind kind = EntryKind::Materialized;

    bool any_unpred = false;
    for (size_t idx : consumed) {
        if (!hb.insts[idx].pred.valid())
            any_unpred = true;
    }
    if (any_unpred) {
        kind = EntryKind::Always;
    } else if (consumed.size() == 2) {
        // Complementary pair (p, true) + (p, false) covers all paths.
        const Predicate &a = hb.insts[consumed[0]].pred;
        const Predicate &b = hb.insts[consumed[1]].pred;
        if (a.reg == b.reg && a.onTrue != b.onTrue)
            kind = EntryKind::Always;
    }
    if (kind != EntryKind::Always && consumed.size() == 1) {
        // The branch predicate can be used directly if its register is
        // not redefined between the branch and the end of the merged
        // block (later HB instructions or S's own code).
        const Predicate &p = hb.insts[consumed[0]].pred;
        bool redefined = writesReg(s, p.reg);
        for (size_t i = consumed[0] + 1; i < hb.insts.size(); ++i) {
            if (hb.insts[i].hasDest() && hb.insts[i].dest == p.reg)
                redefined = true;
        }
        if (!redefined) {
            kind = EntryKind::DirectPred;
            direct = p;
        }
    }
    return kind;
}

/** Drop cached folds whose source predicate register was redefined. */
void
invalidateFolds(std::vector<CombineScratch::FoldEntry> &cache, Vreg dest)
{
    cache.erase(std::remove_if(cache.begin(), cache.end(),
                               [&](const CombineScratch::FoldEntry &e) {
                                   return e.reg == dest;
                               }),
                cache.end());
}

} // namespace

bool
combineBlocks(Function &fn, BasicBlock &hb, const BasicBlock &s,
              double freq_share, CombineScratch &sc)
{
    collectConsumed(hb, s.id(), sc.consumed);
    if (sc.consumed.empty())
        return false;

    // Classify the entry condition.
    Predicate direct;
    EntryKind kind = classifyEntry(hb, s, sc.consumed, direct);

    // Rebuild HB's instruction list: consumed branches are removed; in
    // the materialized case each is replaced in place by a snapshot of
    // its condition (the position matters: the predicate register may
    // be redefined later in program order).
    std::vector<Vreg> &snapshots = sc.snapshots;
    snapshots.clear();
    std::vector<Instruction> &body = sc.body;
    body.clear();
    body.reserve(hb.insts.size() + s.insts.size() + 4);
    size_t consumed_cursor = 0;
    for (size_t i = 0; i < hb.insts.size(); ++i) {
        bool is_consumed = consumed_cursor < sc.consumed.size() &&
                           sc.consumed[consumed_cursor] == i;
        if (!is_consumed) {
            body.push_back(hb.insts[i]);
            continue;
        }
        ++consumed_cursor;
        if (kind == EntryKind::Materialized) {
            const Predicate &p = hb.insts[i].pred;
            Vreg snap = fn.newVreg();
            body.push_back(materializeTruth(snap, p.reg, p.onTrue));
            snapshots.push_back(snap);
        }
    }

    // Combine multiple snapshots with an OR chain; the result is the
    // 0/1 entry condition.
    Vreg entry_reg = kNoVreg;
    if (kind == EntryKind::Materialized) {
        entry_reg = snapshots[0];
        for (size_t i = 1; i < snapshots.size(); ++i) {
            Vreg combined = fn.newVreg();
            body.push_back(Instruction::binary(
                Opcode::Or, combined, Operand::makeReg(entry_reg),
                Operand::makeReg(snapshots[i])));
            entry_reg = combined;
        }
    }

    // For AND-combining with S's internal predicates we need the entry
    // condition as a *value*. Band/Bandc normalize their first operand
    // (dest = (a != 0) && ...), so a positive-polarity direct predicate
    // can be used raw; a negated one is materialized once with Teq (at
    // the head of the appended region -- we verified S does not write
    // the register).
    Vreg entry_value = entry_reg;
    auto entry_value_reg = [&]() -> Vreg {
        if (entry_value != kNoVreg)
            return entry_value;
        CHF_ASSERT(kind == EntryKind::DirectPred,
                   "entry value requested for Always entry");
        if (direct.onTrue) {
            entry_value = direct.reg;
        } else {
            entry_value = fn.newVreg();
            body.push_back(
                materializeTruth(entry_value, direct.reg, false));
        }
        return entry_value;
    };

    // Cache of folded predicates: (reg, polarity) -> entry && pred,
    // invalidated when the register is redefined. A small linear cache:
    // blocks rarely carry more than a handful of live predicates.
    std::vector<CombineScratch::FoldEntry> &fold_cache = sc.foldCache;
    fold_cache.clear();

    for (const Instruction &orig : s.insts) {
        Instruction inst = orig;
        if (inst.isBranch())
            inst.freq *= freq_share;

        if (kind == EntryKind::Always) {
            // Keep S's own predicate unchanged.
        } else if (!inst.pred.valid()) {
            // Unpredicated instruction: guard by the entry condition.
            if (kind == EntryKind::DirectPred)
                inst.pred = direct;
            else
                inst.pred = Predicate::onReg(entry_reg, true);
        } else {
            // Predicated instruction: AND the entry condition with the
            // instruction's own predicate in a single predicate-algebra
            // instruction (as TRIPS composes predicates in dataflow).
            Vreg folded = kNoVreg;
            for (const auto &e : fold_cache) {
                if (e.reg == inst.pred.reg &&
                    e.onTrue == inst.pred.onTrue) {
                    folded = e.folded;
                    break;
                }
            }
            if (folded == kNoVreg) {
                folded = fn.newVreg();
                body.push_back(Instruction::binary(
                    inst.pred.onTrue ? Opcode::Band : Opcode::Bandc,
                    folded, Operand::makeReg(entry_value_reg()),
                    Operand::makeReg(inst.pred.reg)));
                fold_cache.push_back(
                    {inst.pred.reg, inst.pred.onTrue, folded});
            }
            inst.pred = Predicate::onReg(folded, true);
        }

        body.push_back(inst);

        // Invalidate cached folds whose source was redefined.
        if (inst.hasDest())
            invalidateFolds(fold_cache, inst.dest);
    }

    hb.insts.swap(body);
    return true;
}

} // namespace chf
