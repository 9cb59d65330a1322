#include "ir/verifier.h"

#include <algorithm>

#include "ir/printer.h"
#include "support/fatal.h"
#include "support/stamped_table.h"

namespace chf {

namespace {

void
checkInst(const Function &fn, const BasicBlock &bb, size_t idx,
          const Instruction &inst, std::vector<std::string> &problems)
{
    auto complain = [&](const std::string &what) {
        problems.push_back(concat("bb", bb.id(), "[", idx, "] ",
                                  toString(inst), ": ", what));
    };

    auto check_reg = [&](Vreg v, const char *what) {
        if (v != kNoVreg && v >= fn.numVregs())
            complain(concat(what, " register v", v, " out of range"));
    };

    // Destination shape.
    if (opcodeHasDest(inst.op)) {
        if (inst.dest == kNoVreg)
            complain("missing destination");
        check_reg(inst.dest, "dest");
    } else if (inst.dest != kNoVreg) {
        complain("unexpected destination");
    }

    // Source shape: the first numSrcs operands must be present (Ret's
    // value is optional), the rest must be empty.
    int nsrcs = inst.numSrcs();
    for (int i = 0; i < 3; ++i) {
        const Operand &src = inst.srcs[i];
        if (i < nsrcs) {
            if (src.isNone() && inst.op != Opcode::Ret)
                complain(concat("missing source operand ", i));
            if (src.isReg())
                check_reg(src.reg, "source");
        } else if (!src.isNone()) {
            complain(concat("unexpected source operand ", i));
        }
    }

    if (inst.pred.valid())
        check_reg(inst.pred.reg, "predicate");

    if (inst.op == Opcode::Br) {
        if (inst.target == kNoBlock ||
            inst.target >= fn.blockTableSize() ||
            fn.block(inst.target) == nullptr) {
            complain("branch to dead or invalid block");
        }
    } else if (inst.target != kNoBlock) {
        complain("non-branch carries a target");
    }
}

} // namespace

std::vector<std::string>
verify(const Function &fn)
{
    std::vector<std::string> problems;

    if (fn.entry() == kNoBlock || fn.entry() >= fn.blockTableSize() ||
        fn.block(fn.entry()) == nullptr) {
        problems.push_back("function has no live entry block");
        return problems;
    }

    for (Vreg arg : fn.argRegs) {
        if (arg >= fn.numVregs())
            problems.push_back(concat("arg register v", arg,
                                      " out of range"));
    }

    // Where each in-range vreg is defined, for the predicate
    // reaching-definition check: a predicate use must see its register
    // defined earlier in the same block, by a function argument, or by
    // some other block (a cross-block live-in). The per-block table
    // resets in O(1), so a call costs O(vregs + instructions), not
    // O(blocks x vregs).
    const uint32_t nv = fn.numVregs();
    std::vector<uint8_t> defined_by_arg(nv, 0);
    for (Vreg arg : fn.argRegs) {
        if (arg < nv)
            defined_by_arg[arg] = 1;
    }
    // The index of each vreg's first definition in one block.
    StampedTable<uint32_t> first_def;
    first_def.resize(nv);
    auto index_defs = [&](const BasicBlock &bb, auto on_first) {
        first_def.clear();
        for (uint32_t i = 0; i < bb.insts.size(); ++i) {
            const Instruction &inst = bb.insts[i];
            if (inst.hasDest() && inst.dest < nv &&
                !first_def.contains(inst.dest)) {
                first_def.touch(inst.dest) = i;
                on_first(inst.dest);
            }
        }
    };
    // Count of blocks defining each vreg (2 saturates: "many").
    std::vector<uint8_t> defining_blocks(nv, 0);
    for (BlockId id : fn.blockIds()) {
        index_defs(*fn.block(id), [&](Vreg v) {
            if (defining_blocks[v] < 2)
                ++defining_blocks[v];
        });
    }

    for (BlockId id : fn.blockIds()) {
        const BasicBlock &bb = *fn.block(id);
        if (bb.insts.empty()) {
            problems.push_back(concat("bb", id, " is empty"));
            continue;
        }

        index_defs(bb, [](Vreg) {});

        size_t branches = 0;
        size_t unpredicated_branches = 0;
        for (size_t i = 0; i < bb.insts.size(); ++i) {
            const Instruction &inst = bb.insts[i];
            checkInst(fn, bb, i, inst, problems);
            if (inst.pred.valid() && inst.pred.reg < nv) {
                // A reaching definition is: one earlier in this block,
                // a function argument, or a def in some *other* block
                // (a cross-block live-in). A predicate whose only def
                // is later in this same block, or that has no def at
                // all, reads an undefined value.
                Vreg p = inst.pred.reg;
                const uint32_t *first = first_def.find(p);
                bool reaches = (first && *first < i) || defined_by_arg[p] ||
                               defining_blocks[p] >= 2 ||
                               (defining_blocks[p] == 1 && !first);
                if (!reaches) {
                    problems.push_back(
                        concat("bb", id, "[", i, "] ", toString(inst),
                               ": predicate register v", p,
                               " has no reaching definition"));
                }
            }
            if (inst.isBranch()) {
                ++branches;
                if (!inst.pred.valid())
                    ++unpredicated_branches;
            }
        }
        if (branches == 0)
            problems.push_back(concat("bb", id, " has no branch or ret"));
        if (unpredicated_branches > 1) {
            problems.push_back(concat("bb", id, " has ",
                                      unpredicated_branches,
                                      " unpredicated branches"));
        }

        // The block's successor list must be exactly the set of its
        // branch targets, and every successor must be a live block.
        std::vector<BlockId> expected;
        for (const Instruction &inst : bb.insts) {
            if (inst.op == Opcode::Br && inst.target != kNoBlock &&
                std::find(expected.begin(), expected.end(),
                          inst.target) == expected.end()) {
                expected.push_back(inst.target);
            }
        }
        std::vector<BlockId> actual = bb.successors();
        if (actual != expected) {
            problems.push_back(concat(
                "bb", id, " successor list does not match its "
                "terminator targets (", actual.size(), " successors, ",
                expected.size(), " branch targets)"));
        }
        for (BlockId succ : actual) {
            if (succ >= fn.blockTableSize() ||
                fn.block(succ) == nullptr) {
                problems.push_back(concat("bb", id,
                                          " successor list names dead "
                                          "block bb", succ));
            }
        }
    }
    return problems;
}

void
verifyOrDie(const Function &fn, const std::string &context)
{
    auto problems = verify(fn);
    if (!problems.empty()) {
        panic(concat("IR verification failed (", context,
                     "): ", problems.front(), " [", problems.size(),
                     " problem(s) total]"));
    }
}

} // namespace chf
