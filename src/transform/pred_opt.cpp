#include "transform/pred_opt.h"

namespace chf {

namespace {

// Requirement kinds stored in PredOptScratch::Requirement::kind.
constexpr uint8_t kNoReaders = 0;
constexpr uint8_t kSingle = 1;
constexpr uint8_t kConflict = 2;

/**
 * Merge identical pure instructions under complementary predicates.
 * For a pair i < j with the same op/dest/srcs and predicates
 * (p,true)/(p,false), no write in (i, j) may touch the destination,
 * any source, or p itself; then i runs unpredicated and j disappears.
 */
size_t
mergeComplementary(BasicBlock &bb)
{
    size_t merged = 0;
    for (size_t i = 0; i < bb.insts.size(); ++i) {
        Instruction &a = bb.insts[i];
        if (!a.pred.valid() || !opcodeIsPure(a.op) ||
            a.op == Opcode::Load || !a.hasDest()) {
            continue;
        }
        for (size_t j = i + 1; j < bb.insts.size(); ++j) {
            Instruction &b = bb.insts[j];
            if (b.op != a.op || b.dest != a.dest || b.srcs != a.srcs)
                continue;
            if (!b.pred.valid() || b.pred.reg != a.pred.reg ||
                b.pred.onTrue == a.pred.onTrue) {
                continue;
            }
            // Check for interference between the pair: no write may
            // touch the destination, a source, or the predicate, and
            // nothing may read the destination (it would observe the
            // hoisted value too early on the complementary path).
            bool clobbered = false;
            for (size_t k = i + 1; k < j && !clobbered; ++k) {
                const Instruction &mid = bb.insts[k];
                mid.forEachUse([&](Vreg v) {
                    if (v == a.dest)
                        clobbered = true;
                });
                if (!mid.hasDest())
                    continue;
                if (mid.dest == a.dest || mid.dest == a.pred.reg)
                    clobbered = true;
                for (int s = 0; s < a.numSrcs(); ++s) {
                    if (a.srcs[s].isReg() && a.srcs[s].reg == mid.dest)
                        clobbered = true;
                }
            }
            if (clobbered)
                break;
            a.pred = Predicate::always();
            bb.insts.erase(bb.insts.begin() + j);
            ++merged;
            break;
        }
    }
    return merged;
}

/**
 * Drop predicates of chain-interior instructions (implicit
 * predication). See the header comment for the safety argument.
 *
 * The per-register requirement table is lazily seeded: a register
 * first touched during the walk initializes to Conflict when live out
 * (an unconditional observer, exactly what impose(always()) produced
 * in the map version) and NoReaders otherwise. An "erase" writes
 * NoReaders into the present entry so the lazy seeding cannot
 * resurrect the live-out constraint.
 */
size_t
dropImplicit(BasicBlock &bb, const BitVector &live_out,
             PredOptScratch &sc)
{
    size_t nv = live_out.size();

    // Registers read as predicates anywhere must always hold valid
    // truth values, so their producers keep their guards.
    for (const auto &inst : bb.insts) {
        if (inst.pred.valid() && inst.pred.reg < nv)
            sc.usedAsPred.touch(inst.pred.reg);
    }

    auto requirement = [&](Vreg v) -> PredOptScratch::Requirement & {
        const bool seeded = sc.requirements.contains(v);
        PredOptScratch::Requirement &req = sc.requirements.touch(v);
        if (!seeded)
            req.kind = v < nv && live_out.test(v) ? kConflict : kNoReaders;
        return req;
    };
    auto impose = [&](Vreg v, const Predicate &p) {
        PredOptScratch::Requirement &req = requirement(v);
        if (!p.valid()) {
            req.kind = kConflict;
            return;
        }
        switch (req.kind) {
          case kNoReaders:
            req.kind = kSingle;
            req.pred = p;
            break;
          case kSingle:
            if (!(req.pred == p))
                req.kind = kConflict;
            break;
          default:
            break;
        }
    };

    size_t dropped = 0;

    for (size_t i = bb.insts.size(); i-- > 0;) {
        Instruction &inst = bb.insts[i];

        // The requirement this instruction's reads impose is its guard
        // before any modification (if we drop it below, the original
        // guard still bounds when the value is consumed).
        Predicate original_guard = inst.pred;

        // Handle the write first (we are walking backwards, so this
        // decides droppability from the constraints of later readers).
        if (inst.hasDest() && inst.dest < nv) {
            PredOptScratch::Requirement &req = requirement(inst.dest);
            const uint8_t req_kind = req.kind;
            const Predicate req_pred = req.pred;

            // Loads may be unguarded too (speculative issue): they do
            // not change memory, out-of-image reads return zero, and
            // the stale-address result is only seen by guarded
            // consumers.
            bool droppable =
                inst.pred.valid() &&
                (opcodeIsPure(inst.op) || inst.op == Opcode::Load) &&
                !sc.usedAsPred.contains(inst.dest) &&
                (req_kind == kNoReaders ||
                 (req_kind == kSingle && req_pred == inst.pred));
            if (droppable) {
                inst.pred = Predicate::always();
                ++dropped;
            }

            // Earlier writes are observable through this one only when
            // this write may not fire and a later reader is not
            // guarded by the same predicate. An unpredicated write
            // hides everything above; a predicated write whose guard
            // matches every later reader also hides them (reader fires
            // => this write fired). Otherwise constraints persist
            // conservatively.
            if (!inst.pred.valid()) {
                req.kind = kNoReaders;
            } else if (req_kind == kNoReaders ||
                       (req_kind == kSingle &&
                        req_pred == inst.pred)) {
                req.kind = kNoReaders;
            }
            // else: keep the accumulated requirement.
        }

        // Impose requirements for this instruction's reads.
        for (int s = 0; s < inst.numSrcs(); ++s) {
            if (inst.srcs[s].isReg())
                impose(inst.srcs[s].reg, original_guard);
        }
        // A predicate register is evaluated unconditionally.
        if (inst.pred.valid())
            impose(inst.pred.reg, Predicate::always());
    }
    return dropped;
}

} // namespace

size_t
optimizePredicates(BasicBlock &bb, const BitVector &live_out,
                   PredOptScratch &sc)
{
    sc.requirements.clear();
    sc.usedAsPred.clear();
    size_t changes = 0;
    changes += mergeComplementary(bb);
    changes += dropImplicit(bb, live_out, sc);
    return changes;
}

} // namespace chf
