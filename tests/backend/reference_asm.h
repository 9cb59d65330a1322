/**
 * @file
 * The assembly writer that writeFunctionAsm replaced, kept as the
 * reference it must match byte for byte. Each block builds std::maps
 * keyed by register (current producer, read numbers, read targets,
 * write numbers) and an instruction-to-writes map, and prints through
 * an ostringstream. The maps' ordering is what fixes the byte order:
 * read lines by ascending register, write numbers at the first W[] in
 * instruction order, write lines by ascending register.
 */

#ifndef CHF_TESTS_BACKEND_REFERENCE_ASM_H
#define CHF_TESTS_BACKEND_REFERENCE_ASM_H

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/liveness.h"
#include "ir/function.h"

namespace chf::reference {

namespace asm_detail {

/** One consumer of a produced value: instruction index + slot. */
struct Target
{
    size_t inst;
    int slot; ///< 0..2 = operand, -1 = predicate
};

inline const char *
slotName(int slot)
{
    switch (slot) {
      case -1: return "pred";
      case 0: return "op0";
      case 1: return "op1";
      default: return "op2";
    }
}

inline std::string
mnemonic(const Instruction &inst)
{
    std::string name = opcodeName(inst.op);
    if (inst.op == Opcode::Br) {
        if (!inst.pred.valid())
            return "bro";
        return inst.pred.onTrue ? "bro_t" : "bro_f";
    }
    if (inst.op == Opcode::Ret) {
        if (!inst.pred.valid())
            return "ret";
        return inst.pred.onTrue ? "ret_t" : "ret_f";
    }
    for (int s = 0; s < inst.numSrcs(); ++s) {
        if (inst.srcs[s].isImm())
            return name + "i";
    }
    return name;
}

} // namespace asm_detail

inline std::string
writeBlockAsm(const Function &fn, const BasicBlock &bb,
              const Liveness &liveness)
{
    using asm_detail::Target;
    BitVector live_out;
    liveness.liveOutOf(bb, live_out);
    if (bb.hasReturn()) {
        for (const auto &inst : bb.insts) {
            if (inst.op == Opcode::Ret && inst.srcs[0].isReg())
                live_out.set(inst.srcs[0].reg);
        }
    }

    std::map<Vreg, int> current_producer;
    std::map<Vreg, int> read_index;
    std::vector<std::vector<Target>> inst_targets(bb.size());
    std::map<Vreg, std::vector<Target>> read_targets;

    auto note_use = [&](Vreg v, size_t inst, int slot) {
        auto it = current_producer.find(v);
        if (it != current_producer.end() && it->second >= 0) {
            inst_targets[static_cast<size_t>(it->second)].push_back(
                {inst, slot});
        } else {
            if (!read_index.count(v)) {
                int idx = static_cast<int>(read_index.size());
                read_index[v] = idx;
            }
            read_targets[v].push_back({inst, slot});
        }
    };

    for (size_t i = 0; i < bb.insts.size(); ++i) {
        const Instruction &inst = bb.insts[i];
        for (int s = 0; s < inst.numSrcs(); ++s) {
            if (inst.srcs[s].isReg())
                note_use(inst.srcs[s].reg, i, s);
        }
        if (inst.pred.valid())
            note_use(inst.pred.reg, i, -1);
        if (inst.hasDest())
            current_producer[inst.dest] = static_cast<int>(i);
    }

    std::map<size_t, std::vector<Vreg>> write_of;
    live_out.forEach([&](uint32_t v) {
        auto it = current_producer.find(v);
        if (it != current_producer.end() && it->second >= 0)
            write_of[static_cast<size_t>(it->second)].push_back(v);
    });

    std::ostringstream os;
    os << ".bbegin " << fn.name() << "$" << bb.name() << "\n";
    for (const auto &[reg, idx] : read_index) {
        os << "  R[" << idx << "]  read  $g" << reg << " >";
        for (const Target &t : read_targets[reg])
            os << " N[" << t.inst << "," << asm_detail::slotName(t.slot)
               << "]";
        os << "\n";
    }

    int write_counter = 0;
    std::map<Vreg, int> write_ids;
    for (size_t i = 0; i < bb.insts.size(); ++i) {
        const Instruction &inst = bb.insts[i];
        os << "  N[" << i << "]  " << asm_detail::mnemonic(inst);
        for (int s = 0; s < inst.numSrcs(); ++s) {
            if (inst.srcs[s].isImm())
                os << " #" << inst.srcs[s].imm;
        }
        if (inst.op == Opcode::Br)
            os << " " << fn.name() << "$bb" << inst.target;

        bool first_target = true;
        auto arrow = [&]() {
            if (first_target) {
                os << " >";
                first_target = false;
            }
        };
        for (const Target &t : inst_targets[i]) {
            arrow();
            os << " N[" << t.inst << "," << asm_detail::slotName(t.slot)
               << "]";
        }
        auto w = write_of.find(i);
        if (w != write_of.end()) {
            for (Vreg reg : w->second) {
                if (!write_ids.count(reg))
                    write_ids[reg] = write_counter++;
                arrow();
                os << " W[" << write_ids[reg] << "]";
            }
        }
        os << "\n";
    }

    for (const auto &[reg, idx] : write_ids)
        os << "  W[" << idx << "]  write $g" << reg << "\n";
    os << ".bend\n";
    return os.str();
}

inline std::string
writeFunctionAsm(const Function &fn)
{
    std::ostringstream os;
    os << "; " << fn.name() << ": " << fn.numBlocks() << " blocks, "
       << fn.totalInsts() << " instructions\n";
    Liveness liveness(fn);
    os << writeBlockAsm(fn, *fn.block(fn.entry()), liveness);
    for (BlockId id : fn.blockIds()) {
        if (id != fn.entry())
            os << writeBlockAsm(fn, *fn.block(id), liveness);
    }
    return os.str();
}

} // namespace chf::reference

#endif // CHF_TESTS_BACKEND_REFERENCE_ASM_H
