#include "backend/fanout.h"

#include <utility>
#include <vector>

#include "support/stamped_table.h"

namespace chf {

namespace {

/** Split steps one block may take; bounds pathological blocks. */
constexpr size_t kSplitBudget = 4096;

/** One in-block read of a produced value. */
struct Use
{
    uint32_t inst;
    int slot; ///< 0..2 = operand, -1 = predicate
};

/** Movs the tree for a producer with @p n consumers needs. */
size_t
treeMoves(size_t n)
{
    if (n <= kMaxTargets)
        return 0;
    if (n == kMaxTargets + 1)
        return 1;
    return 2 + treeMoves(n / 2) + treeMoves(n - n / 2);
}

/**
 * Fanout over the blocks of one function. The provider table is
 * indexed by register and reset in O(1) per block, so a function costs
 * O(registers + instructions).
 */
class FanoutPass
{
  public:
    explicit FanoutPass(Function &fn) : fn(fn) {}

    size_t run(BasicBlock &bb);

  private:
    void split(BasicBlock &bb, std::vector<Instruction> &out, Vreg orig,
               size_t begin, size_t end);

    Function &fn;
    StampedTable<uint32_t> provider; ///< reg -> producing inst
    std::vector<std::pair<uint32_t, Use>> reads; ///< (producer, use)
    std::vector<uint32_t> first; ///< inst i's uses: [first[i], first[i+1])
    std::vector<uint32_t> fill;
    std::vector<Use> consumers;
    size_t steps = 0;
    size_t moves = 0;
};

size_t
FanoutPass::run(BasicBlock &bb)
{
    // Collect, per producing instruction, its in-block consumers (src
    // or predicate reads) up to the next redefinition of its register.
    // Values read from outside the block (live-ins) arrive through the
    // register file, which broadcasts; only in-block producers fan out.
    const size_t n = bb.insts.size();
    provider.clear();
    reads.clear();
    auto note = [&](Vreg v, size_t i, int slot) {
        if (const uint32_t *p = provider.find(v))
            reads.push_back({*p, {static_cast<uint32_t>(i), slot}});
    };
    for (size_t i = 0; i < n; ++i) {
        const Instruction &inst = bb.insts[i];
        for (int s = 0; s < inst.numSrcs(); ++s) {
            if (inst.srcs[s].isReg())
                note(inst.srcs[s].reg, i, s);
        }
        if (inst.pred.valid())
            note(inst.pred.reg, i, -1);
        if (inst.hasDest())
            provider.touch(inst.dest) = static_cast<uint32_t>(i);
    }

    // Group the reads by producer, keeping instruction/slot order.
    first.assign(n + 1, 0);
    for (const auto &[p, use] : reads)
        ++first[p + 1];
    size_t needed = 0;
    for (size_t i = 0; i < n; ++i) {
        needed += treeMoves(first[i + 1]);
        first[i + 1] += first[i];
    }
    if (needed == 0)
        return 0;
    consumers.resize(reads.size());
    fill.assign(first.begin(), first.end() - 1);
    for (const auto &[p, use] : reads)
        consumers[fill[p]++] = use;

    // Emit each over-subscribed producer's mov tree right after it.
    // Consumers follow their producer, so rewiring them in place before
    // they are copied out is safe.
    std::vector<Instruction> out;
    out.reserve(n + needed);
    steps = 0;
    moves = 0;
    for (size_t i = 0; i < n; ++i) {
        out.push_back(bb.insts[i]);
        if (first[i + 1] - first[i] > kMaxTargets)
            split(bb, out, bb.insts[i].dest, first[i], first[i + 1]);
    }
    bb.insts = std::move(out);
    return moves;
}

/**
 * Serve consumers [@p begin, @p end) of @p orig, whose producer was
 * just emitted. Rather than peeling one consumer per mov (a
 * latency-linear chain), split the set in half across two movs and
 * recurse, giving a balanced tree of logarithmic depth, matching the
 * fanout trees a real EDGE scheduler builds. Trees come out in
 * pre-order (left mov, left subtree, right mov, right subtree) with
 * both children's registers allocated at the parent's split; the
 * recorded asm digests in tests/backend pin that order and numbering.
 */
void
FanoutPass::split(BasicBlock &bb, std::vector<Instruction> &out, Vreg orig,
                  size_t begin, size_t end)
{
    const size_t count = end - begin;
    if (count <= kMaxTargets || steps == kSplitBudget)
        return;
    ++steps;

    auto rewire = [&](size_t from, size_t to, Vreg copy) {
        for (size_t u = from; u < to; ++u) {
            Instruction &consumer = bb.insts[consumers[u].inst];
            if (consumers[u].slot < 0)
                consumer.pred.reg = copy;
            else
                consumer.srcs[consumers[u].slot] = Operand::makeReg(copy);
        }
    };
    auto mov = [&](Vreg copy) {
        out.push_back(
            Instruction::unary(Opcode::Mov, copy, Operand::makeReg(orig)));
        ++moves;
    };

    if (count <= kMaxTargets + 1) {
        // One mov suffices: the producer keeps the first consumer, the
        // mov serves the rest.
        Vreg copy = fn.newVreg();
        rewire(begin + kMaxTargets - 1, end, copy);
        mov(copy);
        return;
    }
    Vreg left = fn.newVreg();
    Vreg right = fn.newVreg();
    const size_t half = begin + count / 2;
    rewire(begin, half, left);
    rewire(half, end, right);
    mov(left);
    split(bb, out, left, begin, half);
    mov(right);
    split(bb, out, right, half, end);
}

} // namespace

size_t
insertFanoutFunction(Function &fn)
{
    FanoutPass pass(fn);
    size_t total = 0;
    for (BlockId id : fn.blockIds())
        total += pass.run(*fn.block(id));
    return total;
}

} // namespace chf
