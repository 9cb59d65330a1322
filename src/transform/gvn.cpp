#include "transform/gvn.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <functional>
#include <tuple>

#include "analysis/dominators.h"
#include "support/fatal.h"

namespace chf {

namespace {

using ValueNum = uint32_t;

/** Expression key: opcode + operand VNs + predicate VN/polarity. */
struct ExprKey
{
    Opcode op;
    ValueNum a = 0, b = 0, c = 0;
    ValueNum pred = 0;
    bool predPolarity = true;
    uint64_t memEpoch = 0; // loads only

    bool
    operator<(const ExprKey &other) const
    {
        auto tie = [](const ExprKey &k) {
            return std::tuple(k.op, k.a, k.b, k.c, k.pred,
                              k.predPolarity, k.memEpoch);
        };
        return tie(*this) < tie(other);
    }
};

/** splitmix64 finalizer: cheap, well-distributed slot hash. */
inline uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Value table over the stamped tables in GvnScratch. The
 * lookup/insert semantics match the std::map implementation this
 * replaces key-for-key (recordExpr overwrites, iteration order is
 * never observed), so the pass output is bit-identical; only the
 * per-call allocations are gone.
 */
class ValueTable
{
  public:
    explicit ValueTable(GvnScratch &regs) : regs(regs)
    {
        if (regs.constSlots.size() == 0)
            regs.constSlots.resize(64);
        if (regs.exprSlots.size() == 0)
            regs.exprSlots.resize(128);
    }

    ValueNum
    fresh()
    {
        ValueNum vn = next++;
        if (vn >= regs.vn.size())
            regs.vn.resize(vn + 1);
        regs.vn[vn] = GvnScratch::VnInfo{};
        return vn;
    }

    ValueNum
    ofReg(Vreg v)
    {
        if (const ValueNum *vn = regs.regVN.find(v))
            return *vn;
        ValueNum vn = fresh();
        setReg(v, vn);
        return vn;
    }

    ValueNum
    ofConst(int64_t value)
    {
        size_t mask = regs.constSlots.size() - 1;
        size_t idx = mix64(static_cast<uint64_t>(value)) & mask;
        while (const auto *slot = regs.constSlots.find(idx)) {
            if (slot->key == value)
                return slot->vn;
            idx = (idx + 1) & mask;
        }
        ValueNum vn = fresh();
        regs.vn[vn].hasConst = 1;
        regs.vn[vn].constVal = value;
        if (value == 0 || value == 1)
            regs.vn[vn].isBool = 1;
        if ((constCount + 1) * 2 > regs.constSlots.size())
            growConsts();
        insertConst(value, vn);
        return vn;
    }

    /** Mark a value number as known 0/1 (test results etc.). */
    void markBoolean(ValueNum vn) { regs.vn[vn].isBool = 1; }

    struct BoolExpr
    {
        Opcode op;
        ValueNum a, b;
        Vreg aHolder; ///< register that held `a` at computation time
    };

    /** Record that @p vn was computed as op(a, b) (predicate algebra). */
    void
    recordBoolExpr(ValueNum vn, Opcode op, ValueNum a, ValueNum b,
                   Vreg a_holder)
    {
        auto &info = regs.vn[vn];
        info.hasBoolExpr = 1;
        info.beOp = op;
        info.beA = a;
        info.beB = b;
        info.beHolder = a_holder;
    }

    std::optional<BoolExpr>
    boolExprOf(ValueNum vn) const
    {
        if (vn >= regs.vn.size() || !regs.vn[vn].hasBoolExpr)
            return std::nullopt;
        const auto &info = regs.vn[vn];
        return BoolExpr{info.beOp, info.beA, info.beB, info.beHolder};
    }

    bool
    isBoolean(ValueNum vn) const
    {
        return vn < regs.vn.size() && regs.vn[vn].isBool;
    }

    ValueNum
    ofOperand(const Operand &op)
    {
        switch (op.kind) {
          case Operand::Kind::Reg:
            return ofReg(op.reg);
          case Operand::Kind::Imm:
            return ofConst(op.imm);
          case Operand::Kind::None:
            return ofConst(0);
        }
        return ofConst(0);
    }

    /** Constant value of a VN if known. */
    std::optional<int64_t>
    constantOf(ValueNum vn) const
    {
        if (vn >= regs.vn.size() || !regs.vn[vn].hasConst)
            return std::nullopt;
        return regs.vn[vn].constVal;
    }

    void
    setReg(Vreg v, ValueNum vn)
    {
        regs.regVN.touch(v) = vn;
    }

    /** Known expression holder: (vreg, the VN it held). */
    struct Holder
    {
        Vreg reg;
        ValueNum vn;
    };

    std::optional<Holder>
    lookupExpr(const ExprKey &key) const
    {
        size_t mask = regs.exprSlots.size() - 1;
        size_t idx = hashExpr(key) & mask;
        while (const auto *slot = regs.exprSlots.find(idx)) {
            if (slotMatches(*slot, key))
                return Holder{slot->holderReg, slot->holderVN};
            idx = (idx + 1) & mask;
        }
        return std::nullopt;
    }

    void
    recordExpr(const ExprKey &key, Vreg holder, ValueNum vn)
    {
        if ((exprCount + 1) * 2 > regs.exprSlots.size())
            growExprs();
        size_t mask = regs.exprSlots.size() - 1;
        size_t idx = hashExpr(key) & mask;
        while (auto *slot = regs.exprSlots.find(idx)) {
            if (slotMatches(*slot, key)) {
                slot->holderReg = holder;
                slot->holderVN = vn;
                return;
            }
            idx = (idx + 1) & mask;
        }
        GvnScratch::ExprSlot &slot = regs.exprSlots.touch(idx);
        slot.op = key.op;
        slot.predPolarity = key.predPolarity ? 1 : 0;
        slot.a = key.a;
        slot.b = key.b;
        slot.c = key.c;
        slot.pred = key.pred;
        slot.memEpoch = key.memEpoch;
        slot.holderReg = holder;
        slot.holderVN = vn;
        ++exprCount;
    }

  private:
    static uint64_t
    hashExpr(const ExprKey &key)
    {
        uint64_t h = static_cast<uint64_t>(key.op);
        h = mix64(h ^ key.a);
        h = mix64(h ^ key.b);
        h = mix64(h ^ key.c);
        h = mix64(h ^ key.pred ^ (key.predPolarity ? 1ull << 32 : 0));
        return mix64(h ^ key.memEpoch);
    }

    static bool
    slotMatches(const GvnScratch::ExprSlot &slot, const ExprKey &key)
    {
        return slot.op == key.op && slot.a == key.a &&
               slot.b == key.b && slot.c == key.c &&
               slot.pred == key.pred &&
               slot.predPolarity == (key.predPolarity ? 1 : 0) &&
               slot.memEpoch == key.memEpoch;
    }

    void
    insertConst(int64_t value, ValueNum vn)
    {
        size_t mask = regs.constSlots.size() - 1;
        size_t idx = mix64(static_cast<uint64_t>(value)) & mask;
        while (regs.constSlots.contains(idx))
            idx = (idx + 1) & mask;
        regs.constSlots.touch(idx) = {value, vn};
        ++constCount;
    }

    void
    growConsts()
    {
        StampedTable<GvnScratch::ConstSlot> old;
        std::swap(old, regs.constSlots);
        regs.constSlots.resize(old.size() * 2);
        size_t mask = regs.constSlots.size() - 1;
        for (size_t i = 0; i < old.size(); ++i) {
            const auto *slot = old.find(i);
            if (!slot)
                continue;
            size_t idx = mix64(static_cast<uint64_t>(slot->key)) & mask;
            while (regs.constSlots.contains(idx))
                idx = (idx + 1) & mask;
            regs.constSlots.touch(idx) = *slot;
        }
    }

    void
    growExprs()
    {
        StampedTable<GvnScratch::ExprSlot> old;
        std::swap(old, regs.exprSlots);
        regs.exprSlots.resize(old.size() * 2);
        size_t mask = regs.exprSlots.size() - 1;
        for (size_t i = 0; i < old.size(); ++i) {
            const auto *slot = old.find(i);
            if (!slot)
                continue;
            ExprKey key;
            key.op = slot->op;
            key.a = slot->a;
            key.b = slot->b;
            key.c = slot->c;
            key.pred = slot->pred;
            key.predPolarity = slot->predPolarity != 0;
            key.memEpoch = slot->memEpoch;
            size_t idx = hashExpr(key) & mask;
            while (regs.exprSlots.contains(idx))
                idx = (idx + 1) & mask;
            regs.exprSlots.touch(idx) = *slot;
        }
    }

    ValueNum next = 1;
    GvnScratch &regs;
    size_t constCount = 0;
    size_t exprCount = 0;
};

/** Algebraic identities; returns the replacement operand if one applies. */
std::optional<Operand>
simplifyAlgebraic(const Instruction &inst, ValueTable &table)
{
    if (inst.numSrcs() != 2 || !opcodeIsPure(inst.op))
        return std::nullopt;
    ValueNum va = table.ofOperand(inst.srcs[0]);
    ValueNum vb = table.ofOperand(inst.srcs[1]);
    auto ca = table.constantOf(va);
    auto cb = table.constantOf(vb);

    switch (inst.op) {
      case Opcode::Add:
        if (cb && *cb == 0)
            return inst.srcs[0];
        if (ca && *ca == 0)
            return inst.srcs[1];
        break;
      case Opcode::Sub:
        if (cb && *cb == 0)
            return inst.srcs[0];
        if (va == vb)
            return Operand::makeImm(0);
        break;
      case Opcode::Mul:
        if (cb && *cb == 1)
            return inst.srcs[0];
        if (ca && *ca == 1)
            return inst.srcs[1];
        if ((ca && *ca == 0) || (cb && *cb == 0))
            return Operand::makeImm(0);
        break;
      case Opcode::Div:
        if (cb && *cb == 1)
            return inst.srcs[0];
        break;
      case Opcode::And:
        if (va == vb)
            return inst.srcs[0];
        if ((ca && *ca == 0) || (cb && *cb == 0))
            return Operand::makeImm(0);
        // 1 & x is x for 0/1 truth values (predicate AND chains).
        if (ca && *ca == 1 && table.isBoolean(vb))
            return inst.srcs[1];
        if (cb && *cb == 1 && table.isBoolean(va))
            return inst.srcs[0];
        break;
      case Opcode::Or: {
        if (va == vb)
            return inst.srcs[0];
        if (ca && *ca == 0)
            return inst.srcs[1];
        if (cb && *cb == 0)
            return inst.srcs[0];
        // Band(p,c) | Bandc(p,c) == (p != 0): the guard of a diamond's
        // join is just the guard of the diamond. Collapsing it keeps
        // the arm condition (often a long dependence chain) off the
        // join's predicate.
        const auto ea = table.boolExprOf(va);
        const auto eb = table.boolExprOf(vb);
        if (ea && eb) {
            bool pair = (ea->op == Opcode::Band &&
                         eb->op == Opcode::Bandc) ||
                        (ea->op == Opcode::Bandc &&
                         eb->op == Opcode::Band);
            if (pair && ea->a == eb->a && ea->b == eb->b &&
                table.isBoolean(ea->a) &&
                ea->aHolder != kNoVreg &&
                table.ofReg(ea->aHolder) == ea->a) {
                return Operand::makeReg(ea->aHolder);
            }
        }
        break;
      }
      case Opcode::Xor:
        if (va == vb)
            return Operand::makeImm(0);
        break;
      case Opcode::Band:
        if ((ca && *ca == 0) || (cb && *cb == 0))
            return Operand::makeImm(0);
        if (ca && *ca != 0 && table.isBoolean(vb))
            return inst.srcs[1];
        if (cb && *cb != 0 && table.isBoolean(va))
            return inst.srcs[0];
        if (va == vb && table.isBoolean(va))
            return inst.srcs[0];
        break;
      case Opcode::Bandc:
        if ((ca && *ca == 0) || (cb && *cb != 0))
            return Operand::makeImm(0);
        if (cb && *cb == 0 && table.isBoolean(va))
            return inst.srcs[0];
        if (va == vb)
            return Operand::makeImm(0);
        break;
      case Opcode::Shl:
      case Opcode::Shr:
        if (cb && *cb == 0)
            return inst.srcs[0];
        break;
      case Opcode::Teq:
        if (va == vb)
            return Operand::makeImm(1);
        break;
      case Opcode::Tne:
        if (va == vb)
            return Operand::makeImm(0);
        // x != 0 is x itself when x is already a 0/1 truth value --
        // collapses the truth materializations the merge engine emits.
        if (cb && *cb == 0 && table.isBoolean(va))
            return inst.srcs[0];
        break;
      case Opcode::Tlt:
      case Opcode::Tgt:
        if (va == vb)
            return Operand::makeImm(0);
        break;
      case Opcode::Tle:
      case Opcode::Tge:
        if (va == vb)
            return Operand::makeImm(1);
        break;
      default:
        break;
    }
    return std::nullopt;
}

} // namespace

size_t
valueNumberBlock(BasicBlock &bb, GvnScratch &regs)
{
    regs.regVN.clear();
    regs.constSlots.clear();
    regs.exprSlots.clear();
    ValueTable table(regs);
    uint64_t mem_epoch = 0;
    size_t simplified = 0;
    for (Instruction &inst : bb.insts) {
        // Resolve predicates on known constants: a guard that always
        // holds is dropped (for branches too -- by the one-branch-fires
        // invariant the other exits were already dead); a pure
        // instruction whose guard never holds becomes a self-move
        // no-op for DCE to collect.
        if (inst.pred.valid()) {
            auto pc = table.constantOf(table.ofReg(inst.pred.reg));
            if (pc) {
                bool fires = inst.pred.onTrue ? *pc != 0 : *pc == 0;
                if (fires) {
                    inst.pred = Predicate::always();
                    ++simplified;
                } else if (opcodeIsPure(inst.op) && inst.hasDest()) {
                    inst.op = Opcode::Mov;
                    inst.srcs[0] = Operand::makeReg(inst.dest);
                    inst.srcs[1] = Operand::makeNone();
                    inst.srcs[2] = Operand::makeNone();
                    inst.pred = Predicate::always();
                    ++simplified;
                }
            }
        }

        // Predicate VN (0 when unpredicated).
        ValueNum pred_vn = inst.pred.valid() ? table.ofReg(inst.pred.reg)
                                             : 0;

        if (inst.op == Opcode::Store) {
            ++mem_epoch;
            continue;
        }
        if (inst.isBranch())
            continue;

        if (inst.op == Opcode::Load) {
            // Redundant-load elimination: same address VNs, same
            // predicate, no intervening store.
            ExprKey key;
            key.op = Opcode::Load;
            key.a = table.ofOperand(inst.srcs[0]);
            key.b = table.ofOperand(inst.srcs[1]);
            key.pred = pred_vn;
            key.predPolarity = inst.pred.onTrue;
            key.memEpoch = mem_epoch;
            auto holder = table.lookupExpr(key);
            if (holder && holder->reg != inst.dest &&
                table.ofReg(holder->reg) == holder->vn) {
                inst.op = Opcode::Mov;
                inst.srcs[0] = Operand::makeReg(holder->reg);
                inst.srcs[1] = Operand::makeNone();
                ++simplified;
                // Fall through to Mov handling below.
            } else {
                ValueNum vn = table.fresh();
                table.setReg(inst.dest, vn);
                table.recordExpr(key, inst.dest, vn);
                continue;
            }
        }

        if (inst.op == Opcode::Mov) {
            ValueNum vn = table.ofOperand(inst.srcs[0]);
            if (!inst.pred.valid())
                table.setReg(inst.dest, vn);
            else
                table.setReg(inst.dest, table.fresh());
            continue;
        }

        // Pure computation: try folding, algebra, then CSE.
        ValueNum va = table.ofOperand(inst.srcs[0]);
        ValueNum vb = inst.numSrcs() > 1 ? table.ofOperand(inst.srcs[1])
                                         : table.ofConst(0);
        auto ca = table.constantOf(va);
        auto cb = table.constantOf(vb);

        if (ca && (inst.numSrcs() < 2 || cb)) {
            int64_t value =
                evalOpcode(inst.op, *ca, cb.value_or(0));
            inst.op = Opcode::Mov;
            inst.srcs[0] = Operand::makeImm(value);
            inst.srcs[1] = Operand::makeNone();
            if (!inst.pred.valid())
                table.setReg(inst.dest, table.ofConst(value));
            else
                table.setReg(inst.dest, table.fresh());
            ++simplified;
            continue;
        }

        // Strength reduction: multiply by a power of two becomes a
        // shift (exact in two's complement; the 24-cycle divide has no
        // sign-safe shift form, so it stays).
        if (inst.op == Opcode::Mul) {
            for (int s = 0; s < 2; ++s) {
                auto c = s == 0 ? cb : ca;
                if (c && *c > 1 && (*c & (*c - 1)) == 0) {
                    int shift = __builtin_ctzll(
                        static_cast<uint64_t>(*c));
                    inst.op = Opcode::Shl;
                    if (s == 1)
                        inst.srcs[0] = inst.srcs[1];
                    inst.srcs[1] = Operand::makeImm(shift);
                    va = table.ofOperand(inst.srcs[0]);
                    vb = table.ofOperand(inst.srcs[1]);
                    ca = table.constantOf(va);
                    cb = table.constantOf(vb);
                    ++simplified;
                    break;
                }
            }
        }

        if (auto replacement = simplifyAlgebraic(inst, table)) {
            ValueNum vn = table.ofOperand(*replacement);
            inst.op = Opcode::Mov;
            inst.srcs[0] = *replacement;
            inst.srcs[1] = Operand::makeNone();
            if (!inst.pred.valid())
                table.setReg(inst.dest, vn);
            else
                table.setReg(inst.dest, table.fresh());
            ++simplified;
            continue;
        }

        // Canonicalize commutative operand order for better hits.
        ExprKey key;
        key.op = inst.op;
        key.a = va;
        key.b = vb;
        if (opcodeIsCommutative(inst.op) && key.b < key.a)
            std::swap(key.a, key.b);
        key.pred = pred_vn;
        key.predPolarity = inst.pred.onTrue;

        auto holder = table.lookupExpr(key);
        if (holder && holder->reg != inst.dest &&
            table.ofReg(holder->reg) == holder->vn) {
            // Redundant: forward the earlier result (keeping the
            // predicate so the move fires under the same condition).
            inst.op = Opcode::Mov;
            inst.srcs[0] = Operand::makeReg(holder->reg);
            inst.srcs[1] = Operand::makeNone();
            inst.srcs[2] = Operand::makeNone();
            if (!inst.pred.valid())
                table.setReg(inst.dest, holder->vn);
            else
                table.setReg(inst.dest, table.fresh());
            ++simplified;
            continue;
        }

        ValueNum vn = table.fresh();
        // Track 0/1-valued results for boolean algebraic rules. An
        // unpredicated test always leaves 0/1; logical combinations of
        // booleans stay boolean.
        if (!inst.pred.valid()) {
            bool boolean = opcodeIsTest(inst.op) ||
                           inst.op == Opcode::Band ||
                           inst.op == Opcode::Bandc;
            if ((inst.op == Opcode::And || inst.op == Opcode::Or ||
                 inst.op == Opcode::Xor) &&
                table.isBoolean(va) && table.isBoolean(vb)) {
                boolean = true;
            }
            if (boolean)
                table.markBoolean(vn);
            if ((inst.op == Opcode::Band || inst.op == Opcode::Bandc) &&
                inst.srcs[0].isReg()) {
                table.recordBoolExpr(vn, inst.op, va, vb,
                                     inst.srcs[0].reg);
            }
        }
        table.setReg(inst.dest, vn);
        table.recordExpr(key, inst.dest, vn);
    }
    return simplified;
}

namespace {

/** Expression over single-assignment values: opcode + raw operands. */
struct GlobalExprKey
{
    Opcode op;
    Operand a, b;

    bool
    operator<(const GlobalExprKey &other) const
    {
        auto rank = [](const Operand &op) {
            return std::tuple(static_cast<int>(op.kind), op.reg,
                              op.imm);
        };
        return std::tuple(op, rank(a), rank(b)) <
               std::tuple(other.op, rank(other.a), rank(other.b));
    }
};

} // namespace

size_t
valueNumberFunctionDominator(Function &fn, std::vector<BlockId> &changed)
{
    // Registers assigned exactly once anywhere in the function: their
    // value is unique, so an expression over them computes the same
    // value wherever it is visible.
    std::vector<uint32_t> defs(fn.numVregs(), 0);
    for (BlockId id : fn.blockIds()) {
        for (const auto &inst : fn.block(id)->insts) {
            if (inst.hasDest() && inst.dest < defs.size())
                defs[inst.dest]++;
        }
    }
    // Operands may also be never-written registers (arguments and
    // uninitialized zeros): their value is constant for the whole run.
    auto single_def = [&](Vreg v) {
        return v < defs.size() && defs[v] == 1;
    };
    auto stable_operand = [&](Vreg v) {
        return v < defs.size() && defs[v] <= 1;
    };

    DominatorTree dom(fn);
    std::map<GlobalExprKey, Vreg> table;
    size_t rewritten = 0;

    // Preorder walk with scope rollback.
    std::function<void(BlockId)> walk = [&](BlockId id) {
        std::vector<GlobalExprKey> added;
        BasicBlock *bb = fn.block(id);
        const size_t rewritten_before = rewritten;
        for (auto &inst : bb->insts) {
            bool eligible = opcodeIsPure(inst.op) && inst.hasDest() &&
                            !inst.pred.valid() &&
                            inst.op != Opcode::Mov &&
                            single_def(inst.dest);
            if (eligible) {
                for (int s = 0; s < inst.numSrcs(); ++s) {
                    if (inst.srcs[s].isReg() &&
                        !stable_operand(inst.srcs[s].reg)) {
                        eligible = false;
                    }
                }
            }
            if (!eligible)
                continue;

            GlobalExprKey key{inst.op, inst.srcs[0], inst.srcs[1]};
            auto rank = [](const Operand &op) {
                return std::tuple(static_cast<int>(op.kind), op.reg,
                                  op.imm);
            };
            if (opcodeIsCommutative(inst.op) &&
                rank(key.b) < rank(key.a)) {
                std::swap(key.a, key.b);
            }

            auto it = table.find(key);
            if (it != table.end() && it->second != inst.dest) {
                inst.op = Opcode::Mov;
                inst.srcs[0] = Operand::makeReg(it->second);
                inst.srcs[1] = Operand::makeNone();
                ++rewritten;
            } else if (it == table.end()) {
                table[key] = inst.dest;
                added.push_back(key);
            }
        }
        if (rewritten != rewritten_before)
            changed.push_back(id);
        for (BlockId child : dom.children(id))
            walk(child);
        for (const auto &key : added)
            table.erase(key);
    };
    walk(fn.entry());
    return rewritten;
}

} // namespace chf
