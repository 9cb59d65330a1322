/**
 * @file
 * Property-based testing: generate random (but deterministic) TinyC
 * programs with nested control flow, then require every pipeline and
 * policy to preserve the observable behaviour exactly and to respect
 * the structural constraints. This is the adversarial counterpart of
 * the hand-written workload suite.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "hyperblock/phase_ordering.h"
#include "ir/verifier.h"
#include "pipeline/session.h"
#include "sim/functional_sim.h"
#include "support/fault_inject.h"
#include "support/random.h"

namespace chf {
namespace {

/** Emits random statements with bounded nesting and loop trips. */
class ProgramGenerator
{
  public:
    explicit ProgramGenerator(uint64_t seed) : rng(seed) {}

    std::string
    generate()
    {
        std::ostringstream out;
        out << "int mem[64];\n";
        out << "int main(int a0, int a1) {\n";
        vars = {"a0", "a1"};
        for (int i = 0; i < 3; ++i) {
            out << "  int v" << i << " = "
                << rng.range(-20, 20) << ";\n";
            vars.push_back("v" + std::to_string(i));
        }
        emitBlock(out, 2, 3);
        out << "  return " << expr(2) << ";\n";
        out << "}\n";
        return out.str();
    }

  private:
    /** A variable that may be assigned (never a loop induction var). */
    std::string
    var()
    {
        return vars[rng.below(vars.size())];
    }

    /** Any readable variable, including loop induction variables. */
    std::string
    readVar()
    {
        size_t total = vars.size() + inductionVars.size();
        size_t pick = rng.below(total);
        return pick < vars.size() ? vars[pick]
                                  : inductionVars[pick - vars.size()];
    }

    std::string
    expr(int depth)
    {
        if (depth == 0 || rng.chance(1, 3)) {
            switch (rng.below(3)) {
              case 0:
                return std::to_string(rng.range(-9, 9));
              case 1:
                return readVar();
              default:
                return "mem[(" + readVar() + ") % 64 + 64] "; // wild-ish
            }
        }
        if (rng.chance(1, 8)) {
            return "(" + expr(depth - 1) + " ? " + expr(depth - 1) +
                   " : " + expr(depth - 1) + ")";
        }
        static const char *ops[] = {"+", "-", "*",  "/",  "%",
                                    "&", "|", "^",  "<",  "<=",
                                    ">", "==", "!=", "&&", "||"};
        std::string op = ops[rng.below(15)];
        return "(" + expr(depth - 1) + " " + op + " " +
               expr(depth - 1) + ")";
    }

    void
    emitStmt(std::ostringstream &out, int depth, int indent)
    {
        std::string pad(static_cast<size_t>(indent) * 2, ' ');
        switch (rng.below(depth > 0 ? 7 : 3)) {
          case 0: // assignment
            out << pad << var() << " = " << expr(2) << ";\n";
            break;
          case 1: // compound assignment
            out << pad << var() << " += " << expr(1) << ";\n";
            break;
          case 2: // store
            out << pad << "mem[(" << readVar() << ") % 64 + 64] = "
                << expr(1) << ";\n";
            break;
          case 3: // if / if-else
            out << pad << "if (" << expr(1) << ") {\n";
            emitBlock(out, depth - 1, indent + 1);
            out << pad << "}";
            if (rng.chance(1, 2)) {
                out << " else {\n";
                emitBlock(out, depth - 1, indent + 1);
                out << pad << "}";
            }
            out << "\n";
            break;
          case 4: { // bounded for loop
            std::string iv = "i" + std::to_string(loopCounter++);
            out << pad << "for (int " << iv << " = 0; " << iv << " < "
                << rng.range(1, 9) << "; " << iv << " += 1) {\n";
            inductionVars.push_back(iv);
            emitBlock(out, depth - 1, indent + 1);
            inductionVars.pop_back();
            out << pad << "}\n";
            break;
          }
          case 5: { // do-while loop (bottom tested)
            std::string iv = "d" + std::to_string(loopCounter++);
            out << pad << "int " << iv << " = 0;\n";
            out << pad << "do {\n";
            std::string inner_pad(static_cast<size_t>(indent + 1) * 2,
                                  ' ');
            inductionVars.push_back(iv);
            emitBlock(out, depth - 1, indent + 1);
            out << inner_pad << iv << " += 1;\n";
            inductionVars.pop_back();
            out << pad << "} while (" << iv << " < "
                << rng.range(1, 5) << ");\n";
            break;
          }
          default: { // bounded while loop
            std::string iv = "w" + std::to_string(loopCounter++);
            out << pad << "int " << iv << " = 0;\n";
            out << pad << "while (" << iv << " < "
                << rng.range(1, 6) << ") {\n";
            std::string inner_pad(static_cast<size_t>(indent + 1) * 2,
                                  ' ');
            inductionVars.push_back(iv);
            emitBlock(out, depth - 1, indent + 1);
            out << inner_pad << iv << " += 1;\n";
            inductionVars.pop_back();
            out << pad << "}\n";
            break;
          }
        }
    }

    void
    emitBlock(std::ostringstream &out, int depth, int indent)
    {
        int stmts = static_cast<int>(rng.range(1, 4));
        for (int i = 0; i < stmts; ++i)
            emitStmt(out, depth, indent);
    }

    Rng rng;
    std::vector<std::string> vars;
    std::vector<std::string> inductionVars;
    int loopCounter = 0;
};

class FuzzPipelines : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(FuzzPipelines, AllConfigurationsPreserveSemantics)
{
    ProgramGenerator gen(GetParam());
    std::string source = gen.generate();
    SCOPED_TRACE(source);

    Program base = Session::frontend(source);
    base.defaultArgs = {static_cast<int64_t>(GetParam() % 13) - 6,
                        static_cast<int64_t>(GetParam() % 7)};
    ProfileData profile = prepareProgram(base);
    FuncSimResult oracle = runFunctional(base);

    const std::pair<Pipeline, PolicyKind> cases[] = {
        {Pipeline::UPIO, PolicyKind::BreadthFirst},
        {Pipeline::IUPO, PolicyKind::BreadthFirst},
        {Pipeline::IUP_O, PolicyKind::BreadthFirst},
        {Pipeline::IUPO_fused, PolicyKind::BreadthFirst},
        {Pipeline::IUPO_fused, PolicyKind::DepthFirst},
        {Pipeline::IUPO_fused, PolicyKind::VliwConvergent},
    };
    for (const auto &[pipeline, policy] : cases) {
        Program compiled = base.clone();
        Session session(
            SessionOptions().withPipeline(pipeline).withPolicy(policy));
        session.addProgramRef(compiled, profile);
        session.compile();

        ASSERT_TRUE(verify(compiled.fn).empty())
            << pipelineName(pipeline) << "/" << policyKindName(policy);
        FuncSimResult run = runFunctional(compiled);
        ASSERT_EQ(run.returnValue, oracle.returnValue)
            << pipelineName(pipeline) << "/" << policyKindName(policy);
        ASSERT_EQ(run.memoryHash, oracle.memoryHash)
            << pipelineName(pipeline) << "/" << policyKindName(policy);
    }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, FuzzPipelines,
                         ::testing::Range<uint64_t>(1, 81));

/** Random inputs on argument-taking programs, one pipeline. */
class FuzzInputs : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(FuzzInputs, RandomArgumentsMatch)
{
    ProgramGenerator gen(1000 + GetParam());
    std::string source = gen.generate();
    SCOPED_TRACE(source);

    Program base = Session::frontend(source);
    ProfileData profile = prepareProgram(
        base, {static_cast<int64_t>(GetParam()), 3});

    Program compiled = base.clone();
    Session session(SessionOptions().withPipeline(Pipeline::IUPO_fused));
    session.addProgramRef(compiled, profile);
    session.compile();

    Rng rng(GetParam());
    for (int trial = 0; trial < 6; ++trial) {
        std::vector<int64_t> args = {rng.range(-50, 50),
                                     rng.range(-50, 50)};
        FuncSimResult want = runFunctional(base, args);
        FuncSimResult got = runFunctional(compiled, args);
        ASSERT_EQ(got.returnValue, want.returnValue)
            << "args " << args[0] << "," << args[1];
        ASSERT_EQ(got.memoryHash, want.memoryHash);
    }
}

INSTANTIATE_TEST_SUITE_P(RandomInputs, FuzzInputs,
                         ::testing::Range<uint64_t>(1, 25));

/**
 * Crash-recovery mode: for each seeded random program, inject one
 * fault into every guarded phase in turn and require the transactional
 * pipeline to survive — the fault fires, the phase is rolled back and
 * named in the diagnostics, and the degraded output still matches the
 * reference simulation exactly.
 */
class FaultMatrix : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(FaultMatrix, EveryPhaseSurvivesInjectedFaults)
{
    ProgramGenerator gen(500 + GetParam());
    std::string source = gen.generate();
    SCOPED_TRACE(source);

    Program base = Session::frontend(source);
    base.defaultArgs = {static_cast<int64_t>(GetParam() % 11) - 5, 4};
    ProfileData profile = prepareProgram(base);
    FuncSimResult oracle = runFunctional(base);

    // unroll/peel are discrete phases only in IUPO; the rest are
    // guarded in every non-BB pipeline.
    const std::pair<const char *, Pipeline> cases[] = {
        {"unroll", Pipeline::IUPO},
        {"peel", Pipeline::IUPO},
        {"formation", Pipeline::IUPO_fused},
        {"regalloc", Pipeline::IUPO_fused},
        {"fanout", Pipeline::IUPO_fused},
        {"schedule", Pipeline::IUPO_fused},
    };
    const FaultSpec::Kind kinds[] = {FaultSpec::Kind::CorruptIr,
                                     FaultSpec::Kind::Throw};
    for (const auto &[phase, pipeline] : cases) {
        for (FaultSpec::Kind kind : kinds) {
            SCOPED_TRACE(std::string(phase) + "/" +
                         (kind == FaultSpec::Kind::CorruptIr
                              ? "corrupt-ir"
                              : "throw"));
            FaultSpec spec;
            spec.phase = phase;
            spec.kind = kind;

            Program compiled = base.clone();
            Session session(SessionOptions()
                                .withPipeline(pipeline)
                                .withKeepGoing(true)
                                .withFault(spec));
            session.addProgramRef(compiled, profile);
            SessionResult result = session.compile();
            const DiagnosticEngine &diags = result.diagnostics;

            // The fault must actually have fired, exactly once, and
            // the diagnostics must name the injected phase.
            ASSERT_EQ(result.functions[0].stats.get("faultsFired"), 1);
            ASSERT_TRUE(result.degraded());
            ASSERT_TRUE(diags.hasPhase(phase));
            ASSERT_GE(diags.count(Severity::Error), 1u);

            // Rollback must leave verifier-clean IR whose behaviour
            // matches the reference bit for bit.
            ASSERT_TRUE(verify(compiled.fn).empty());
            FuncSimResult run = runFunctional(compiled);
            ASSERT_EQ(run.returnValue, oracle.returnValue);
            ASSERT_EQ(run.memoryHash, oracle.memoryHash);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(CrashRecovery, FaultMatrix,
                         ::testing::Range<uint64_t>(1, 7));

} // namespace
} // namespace chf
