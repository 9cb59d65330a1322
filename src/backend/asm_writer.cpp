#include "backend/asm_writer.h"

#include <algorithm>
#include <charconv>
#include <utility>
#include <vector>

#include "analysis/liveness.h"
#include "support/stamped_table.h"

namespace chf {

namespace {

/** One consumer of a produced value: instruction index + slot. */
struct Target
{
    uint32_t inst;
    int slot; ///< 0..2 = operand, -1 = predicate
};

/** Working storage for one writeFunctionAsm call. */
struct AsmScratch
{
    /** A register's state in the block being written. */
    struct RegEntry
    {
        uint32_t producer = 0; ///< latest in-block def's index + 1; 0 = none
        uint32_t read = 0;     ///< R[] number + 1; 0 = not read yet
    };

    StampedTable<RegEntry> regs;

    BitVector liveOut;
    /** Registers read from the register file, in first-use order. */
    std::vector<Vreg> reads;
    /** (node, consumer) per use in use order; node n + r is R[r]. */
    std::vector<std::pair<uint32_t, Target>> uses;
    /** Node k's consumers: targets[first[k] .. first[k + 1]). */
    std::vector<uint32_t> first;
    std::vector<uint32_t> fill;
    std::vector<Target> targets;
    /** (register, number) of every R[] or W[], sorted by register. */
    std::vector<std::pair<Vreg, uint32_t>> sorted;
};

template <typename Int>
void
appendNum(std::string &out, Int value)
{
    char buf[24];
    auto res = std::to_chars(buf, buf + sizeof buf, value);
    out.append(buf, res.ptr);
}

const char *
slotName(int slot)
{
    switch (slot) {
      case -1: return "pred";
      case 0: return "op0";
      case 1: return "op1";
      default: return "op2";
    }
}

/** " N[inst,slot]" */
void
appendTarget(std::string &out, const Target &t)
{
    out += " N[";
    appendNum(out, t.inst);
    out += ',';
    out += slotName(t.slot);
    out += ']';
}

/** Mnemonic in TRIPS style: immediates fold into the opcode name. */
void
appendMnemonic(std::string &out, const Instruction &inst)
{
    if (inst.op == Opcode::Br || inst.op == Opcode::Ret) {
        out += inst.op == Opcode::Br ? "bro" : "ret";
        if (inst.pred.valid())
            out += inst.pred.onTrue ? "_t" : "_f";
        return;
    }
    out += opcodeName(inst.op);
    // addi-style immediate forms.
    for (int s = 0; s < inst.numSrcs(); ++s) {
        if (inst.srcs[s].isImm()) {
            out += 'i';
            return;
        }
    }
}

/**
 * Append block @p bb in target form. @p liveness must be current for
 * @p fn; it supplies the block's live-out registers (its writes).
 */
void
writeBlockAsm(const Function &fn, const BasicBlock &bb,
              const Liveness &liveness, AsmScratch &t, std::string &out)
{
    BitVector &live_out = t.liveOut;
    liveness.liveOutOf(bb, live_out);
    if (bb.hasReturn()) {
        // The returned value is an architectural output too.
        for (const auto &inst : bb.insts) {
            if (inst.op == Opcode::Ret && inst.srcs[0].isReg())
                live_out.set(inst.srcs[0].reg);
        }
    }

    // Resolve every use to its producer: the latest in-block def, else
    // a register-file read. Reads are numbered R[i] in first-use order,
    // instructions N[i], writes W[i].
    t.regs.clear();
    t.reads.clear();
    t.uses.clear();
    const uint32_t n = static_cast<uint32_t>(bb.insts.size());
    auto note_use = [&](Vreg v, uint32_t inst, int slot) {
        AsmScratch::RegEntry &e = t.regs.touch(v);
        uint32_t node;
        if (e.producer) {
            node = e.producer - 1;
        } else {
            if (!e.read) {
                t.reads.push_back(v);
                e.read = static_cast<uint32_t>(t.reads.size());
            }
            node = n + e.read - 1;
        }
        t.uses.push_back({node, {inst, slot}});
    };
    for (uint32_t i = 0; i < n; ++i) {
        const Instruction &inst = bb.insts[i];
        for (int s = 0; s < inst.numSrcs(); ++s) {
            if (inst.srcs[s].isReg())
                note_use(inst.srcs[s].reg, i, s);
        }
        if (inst.pred.valid())
            note_use(inst.pred.reg, i, -1);
        if (inst.hasDest())
            t.regs.touch(inst.dest).producer = i + 1;
    }

    // Group consumers by producer node, keeping use order.
    const size_t nodes = n + t.reads.size();
    t.first.assign(nodes + 1, 0);
    for (const auto &[node, use] : t.uses)
        ++t.first[node + 1];
    for (size_t k = 0; k < nodes; ++k)
        t.first[k + 1] += t.first[k];
    t.targets.resize(t.uses.size());
    t.fill.assign(t.first.begin(), t.first.end() - 1);
    for (const auto &[node, use] : t.uses)
        t.targets[t.fill[node]++] = use;

    out += ".bbegin ";
    out += fn.name();
    out += '$';
    out += bb.name();
    out += '\n';

    // Register-file reads first, as in the TRIPS block format, in
    // ascending register order.
    t.sorted.clear();
    for (uint32_t r = 0; r < t.reads.size(); ++r)
        t.sorted.emplace_back(t.reads[r], r);
    std::sort(t.sorted.begin(), t.sorted.end());
    for (const auto &[reg, r] : t.sorted) {
        out += "  R[";
        appendNum(out, r);
        out += "]  read  $g";
        appendNum(out, reg);
        out += " >";
        for (uint32_t k = t.first[n + r]; k < t.first[n + r + 1]; ++k)
            appendTarget(out, t.targets[k]);
        out += '\n';
    }

    // Architectural writes: the final producer of each live-out
    // register, numbered at its W[] in instruction order.
    t.sorted.clear();
    for (uint32_t i = 0; i < n; ++i) {
        const Instruction &inst = bb.insts[i];
        out += "  N[";
        appendNum(out, i);
        out += "]  ";
        appendMnemonic(out, inst);
        // Immediates appear inline; register inputs are implicit (they
        // arrive as targets of their producers).
        for (int s = 0; s < inst.numSrcs(); ++s) {
            if (inst.srcs[s].isImm()) {
                out += " #";
                appendNum(out, inst.srcs[s].imm);
            }
        }
        if (inst.op == Opcode::Br) {
            out += ' ';
            out += fn.name();
            out += "$bb";
            appendNum(out, inst.target);
        }
        const bool writes =
            inst.hasDest() && t.regs.find(inst.dest)->producer == i + 1 &&
            inst.dest < live_out.size() && live_out.test(inst.dest);
        if (t.first[i] != t.first[i + 1] || writes)
            out += " >";
        for (uint32_t k = t.first[i]; k < t.first[i + 1]; ++k)
            appendTarget(out, t.targets[k]);
        if (writes) {
            out += " W[";
            appendNum(out, t.sorted.size());
            out += ']';
            t.sorted.emplace_back(inst.dest, t.sorted.size());
        }
        out += '\n';
    }

    std::sort(t.sorted.begin(), t.sorted.end());
    for (const auto &[reg, w] : t.sorted) {
        out += "  W[";
        appendNum(out, w);
        out += "]  write $g";
        appendNum(out, reg);
        out += '\n';
    }
    out += ".bend\n";
}

} // namespace

std::string
writeFunctionAsm(const Function &fn)
{
    std::string out;
    out += "; ";
    out += fn.name();
    out += ": ";
    appendNum(out, fn.numBlocks());
    out += " blocks, ";
    appendNum(out, fn.totalInsts());
    out += " instructions\n";
    // One liveness solve serves every block. Entry first, then the
    // rest in id order.
    Liveness liveness(fn);
    AsmScratch scratch;
    writeBlockAsm(fn, *fn.block(fn.entry()), liveness, scratch, out);
    for (BlockId id : fn.blockIds()) {
        if (id != fn.entry())
            writeBlockAsm(fn, *fn.block(id), liveness, scratch, out);
    }
    // Return exactly the text's size: callers keep the text (a batch
    // holds every unit's), so spare capacity would be resident memory.
    out.shrink_to_fit();
    return out;
}

} // namespace chf
