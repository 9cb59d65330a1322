#include "backend/asm_writer.h"

#include <map>
#include <sstream>
#include <vector>

#include "analysis/liveness.h"

namespace chf {

namespace {

/** One consumer of a produced value: instruction index + slot. */
struct Target
{
    size_t inst;
    int slot; ///< 0..2 = operand, -1 = predicate
};

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

/** Mnemonic in TRIPS style: immediates fold into the opcode name. */
std::string
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
    // addi-style immediate forms.
    for (int s = 0; s < inst.numSrcs(); ++s) {
        if (inst.srcs[s].isImm())
            return name + "i";
    }
    return name;
}

} // namespace

std::string
writeBlockAsm(const Function &fn, const BasicBlock &bb,
              const Liveness &liveness)
{
    BitVector live_out;
    liveness.liveOutOf(bb, live_out);
    if (bb.hasReturn()) {
        // The returned value is an architectural output too.
        for (const auto &inst : bb.insts) {
            if (inst.op == Opcode::Ret && inst.srcs[0].isReg())
                live_out.set(inst.srcs[0].reg);
        }
    }

    // Producer of each register at each point: -1 means the register
    // file (a read instruction). Collect consumer lists per producer.
    // Reads are numbered R[i], instructions N[i], writes W[i].
    std::map<Vreg, int> current_producer; // inst index, or -1 for read
    std::map<Vreg, int> read_index;       // register-file reads used
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

    // Architectural writes: the final producer of each live-out reg.
    std::map<size_t, std::vector<Vreg>> write_of; // inst -> regs
    live_out.forEach([&](uint32_t v) {
        auto it = current_producer.find(v);
        if (it != current_producer.end() && it->second >= 0)
            write_of[static_cast<size_t>(it->second)].push_back(v);
    });

    std::ostringstream os;
    os << ".bbegin " << fn.name() << "$" << bb.name() << "\n";

    // Register-file reads first, as in the TRIPS block format.
    for (const auto &[reg, idx] : read_index) {
        os << "  R[" << idx << "]  read  $g" << reg << " >";
        for (const Target &t : read_targets[reg])
            os << " N[" << t.inst << "," << slotName(t.slot) << "]";
        os << "\n";
    }

    int write_counter = 0;
    std::map<Vreg, int> write_ids;

    for (size_t i = 0; i < bb.insts.size(); ++i) {
        const Instruction &inst = bb.insts[i];
        os << "  N[" << i << "]  " << mnemonic(inst);
        // Immediates appear inline; register inputs are implicit (they
        // arrive as targets of their producers).
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
            os << " N[" << t.inst << "," << slotName(t.slot) << "]";
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

std::string
writeFunctionAsm(const Function &fn)
{
    std::ostringstream os;
    os << "; " << fn.name() << ": " << fn.numBlocks() << " blocks, "
       << fn.totalInsts() << " instructions\n";
    // One liveness solve serves every block. Entry first, then the
    // rest in id order.
    Liveness liveness(fn);
    os << writeBlockAsm(fn, *fn.block(fn.entry()), liveness);
    for (BlockId id : fn.blockIds()) {
        if (id != fn.entry())
            os << writeBlockAsm(fn, *fn.block(id), liveness);
    }
    return os.str();
}

} // namespace chf
