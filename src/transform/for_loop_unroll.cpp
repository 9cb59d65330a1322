#include "transform/for_loop_unroll.h"

#include <optional>

#include "analysis/loops.h"
#include "transform/cfg_utils.h"
#include "transform/if_convert.h"

namespace chf {

namespace {

/** Everything recognized about a counted loop. */
struct CountedLoop
{
    BlockId head = kNoBlock;
    BlockId body = kNoBlock;
    BlockId exit = kNoBlock;
    size_t testIndex = 0;     ///< index of the test in the head
    Opcode testOp = Opcode::Tlt;
    Vreg induction = kNoVreg;
    Operand bound;
    int64_t step = 0;         ///< positive increment
    double backFreq = 0.0;
};

/** Match the two-block counted-loop shape; nullopt if it diverges. */
std::optional<CountedLoop>
matchCountedLoop(const Function &fn, const Loop &loop)
{
    if (loop.blocks.size() != 2 || loop.latches.size() != 1)
        return std::nullopt;

    CountedLoop out;
    out.head = loop.header;
    out.body = loop.latches[0];
    if (out.body == out.head)
        return std::nullopt;

    const BasicBlock *head = fn.block(out.head);
    const BasicBlock *body = fn.block(out.body);

    // Head: two predicated branches on one test register t with
    // opposite polarity: (t,true) -> body, (t,false) -> exit.
    Vreg test_reg = kNoVreg;
    int branches = 0;
    for (const auto &inst : head->insts) {
        if (!inst.isBranch())
            continue;
        ++branches;
        if (inst.op != Opcode::Br || !inst.pred.valid())
            return std::nullopt;
        if (inst.pred.onTrue) {
            if (inst.target != out.body)
                return std::nullopt;
            test_reg = inst.pred.reg;
            out.backFreq = inst.freq;
        } else {
            out.exit = inst.target;
        }
    }
    if (branches != 2 || test_reg == kNoVreg || out.exit == kNoBlock)
        return std::nullopt;
    if (out.exit == out.head || out.exit == out.body)
        return std::nullopt;

    // Locate the test: t = Tlt/Tle(i, bound), the only writer of t,
    // with t consumed only by the two branches. No stores in the head
    // (its prefix is re-executed by the epilogue head).
    bool found_test = false;
    for (size_t i = 0; i < head->insts.size(); ++i) {
        const Instruction &inst = head->insts[i];
        if (inst.op == Opcode::Store)
            return std::nullopt;
        if (inst.hasDest() && inst.dest == test_reg) {
            if (found_test)
                return std::nullopt; // multiple writers
            if ((inst.op != Opcode::Tlt && inst.op != Opcode::Tle) ||
                inst.pred.valid() || !inst.srcs[0].isReg()) {
                return std::nullopt;
            }
            found_test = true;
            out.testIndex = i;
            out.testOp = inst.op;
            out.induction = inst.srcs[0].reg;
            out.bound = inst.srcs[1];
        }
        // t must feed only the branches.
        if (!inst.isBranch()) {
            bool reads_test = false;
            inst.forEachUse([&](Vreg v) {
                if (v == test_reg)
                    reads_test = true;
            });
            if (reads_test)
                return std::nullopt;
        }
    }
    if (!found_test)
        return std::nullopt;

    // Body: straight-line (single unpredicated back branch), exactly
    // one induction update i = i + c with c > 0, placed anywhere.
    int body_branches = 0;
    int updates = 0;
    for (const auto &inst : body->insts) {
        if (inst.isBranch()) {
            ++body_branches;
            if (inst.op != Opcode::Br || inst.pred.valid() ||
                inst.target != out.head) {
                return std::nullopt;
            }
            continue;
        }
        if (inst.pred.valid())
            return std::nullopt;
        if (inst.hasDest() && inst.dest == out.induction) {
            ++updates;
            if (inst.op != Opcode::Add || !inst.srcs[0].isReg() ||
                inst.srcs[0].reg != out.induction ||
                !inst.srcs[1].isImm() || inst.srcs[1].imm <= 0) {
                return std::nullopt;
            }
            out.step = inst.srcs[1].imm;
        }
    }
    if (body_branches != 1 || updates != 1)
        return std::nullopt;

    // The induction register must not be written in the head; the bound
    // must be invariant (immediate, or a register written in neither
    // block).
    for (const auto &inst : head->insts) {
        if (inst.hasDest() && inst.dest == out.induction)
            return std::nullopt;
    }
    if (out.bound.isReg()) {
        if (writesReg(*head, out.bound.reg) ||
            writesReg(*body, out.bound.reg)) {
            return std::nullopt;
        }
    }
    return out;
}

constexpr int kFactor = 4;

/** Skip loops whose profiled mean trip count is below this. */
constexpr double kMinMeanTrips = 8.0;

/** Skip when kFactor * (loop size) exceeds this many instructions. */
constexpr size_t kSizeBudget = 100;

} // namespace

size_t
unrollForLoops(Function &fn, const ProfileData &profile)
{
    LoopInfo loops(fn);
    size_t unrolled = 0;

    for (const Loop &loop : loops.loops()) {
        auto matched = matchCountedLoop(fn, loop);
        if (!matched)
            continue;
        const CountedLoop &cl = *matched;

        const BasicBlock *head = fn.block(cl.head);
        const BasicBlock *body = fn.block(cl.body);

        if (static_cast<size_t>(kFactor) *
                (head->size() + body->size()) >
            kSizeBudget) {
            continue;
        }
        if (profile.trips.has(cl.head) &&
            profile.trips.meanTrips(cl.head) < kMinMeanTrips) {
            continue;
        }

        // --- Build the unrolled structure ---
        // Head (in place): replace the test with a lookahead guard
        //   g = testOp(i + (kFactor-1)*step, bound)
        // branching to the new main body or the epilogue head.
        // Main body: body + (kFactor-1) x (head prefix + body), ending
        // with a branch back to the head.
        // Epilogue: a pristine copy of the original head + body pair.

        // Pristine copies first.
        std::vector<Instruction> head_insts = head->insts;
        std::vector<Instruction> body_insts = body->insts;

        BasicBlock *main_body = fn.newBlock(head->name() + "_unrolled");
        BasicBlock *epi_head = fn.newBlock(head->name() + "_epi");
        BasicBlock *epi_body = fn.newBlock(body->name() + "_epi");

        // Epilogue head: full original head, body branch retargeted.
        epi_head->insts = head_insts;
        redirectBranches(*epi_head, cl.body, epi_body->id());
        scaleBranchFreqs(*epi_head, 0.2);

        // Epilogue body: original body, back edge to the epilogue head.
        epi_body->insts = body_insts;
        redirectBranches(*epi_body, cl.head, epi_head->id());
        scaleBranchFreqs(*epi_body, 0.2);

        // Main body: kFactor iterations per pass.
        for (int iter = 0; iter < kFactor; ++iter) {
            if (iter > 0) {
                // Head prefix: everything except test and branches
                // (side-effect-free by the match conditions).
                for (size_t i = 0; i < head_insts.size(); ++i) {
                    const Instruction &inst = head_insts[i];
                    if (i == cl.testIndex || inst.isBranch())
                        continue;
                    main_body->append(inst);
                }
            }
            for (const auto &inst : body_insts) {
                if (inst.isBranch())
                    continue;
                main_body->append(inst);
            }
        }
        main_body->append(Instruction::br(cl.head, Predicate::always(),
                                          cl.backFreq *
                                              (1.0 / kFactor) * 0.8));

        // Rewrite the head in place: lookahead guard + retargeted
        // branches.
        BasicBlock *mutable_head = fn.block(cl.head);
        std::vector<Instruction> new_head;
        for (size_t i = 0; i < mutable_head->insts.size(); ++i) {
            Instruction inst = mutable_head->insts[i];
            if (i == cl.testIndex) {
                Vreg lookahead = fn.newVreg();
                new_head.push_back(Instruction::binary(
                    Opcode::Add, lookahead,
                    Operand::makeReg(cl.induction),
                    Operand::makeImm((kFactor - 1) * cl.step)));
                inst.srcs[0] = Operand::makeReg(lookahead);
                new_head.push_back(inst);
                continue;
            }
            if (inst.op == Opcode::Br) {
                if (inst.target == cl.body) {
                    inst.target = main_body->id();
                    inst.freq *= 0.8;
                } else {
                    inst.target = epi_head->id();
                }
            }
            new_head.push_back(inst);
        }
        mutable_head->insts = std::move(new_head);

        // The old body is now unreachable (nothing branches to it).
        fn.removeBlock(cl.body);
        ++unrolled;
    }

    if (unrolled > 0)
        fn.removeUnreachable();
    return unrolled;
}

} // namespace chf
