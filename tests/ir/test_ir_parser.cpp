/**
 * @file
 * Round-trip tests for the textual IR parser: print -> parse -> print
 * must be a fixed point, and the parsed function must behave
 * identically under the functional simulator -- including on real
 * hyperblock output with predicates, holes in the id space, and
 * multi-exit blocks.
 */

#include <gtest/gtest.h>

#include "hyperblock/phase_ordering.h"
#include "ir/ir_parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "pipeline/session.h"
#include "sim/functional_sim.h"
#include "workloads/workloads.h"

namespace chf {
namespace {

void
roundTrip(const Function &fn)
{
    std::string once = toString(fn);
    Function parsed = parseFunctionIR(once);
    EXPECT_TRUE(verify(parsed).empty());
    EXPECT_EQ(toString(parsed), once);
}

TEST(IrParser, SimpleFunction)
{
    Program p = Session::frontend(
        "int main(int x) { if (x > 2) { return x * 3; } return 0; }");
    roundTrip(p.fn);
}

TEST(IrParser, PreservesSemantics)
{
    Program p = Session::frontend(
        "int g[8];\n"
        "int main(int n) {\n"
        "  int s = 0;\n"
        "  for (int i = 0; i < n; i += 1) { g[i % 8] = i; s += i; }\n"
        "  return s;\n"
        "}\n");
    FuncSimResult want = runFunctional(p, {20});

    Program q;
    q.fn = parseFunctionIR(toString(p.fn));
    q.memory = p.memory;
    FuncSimResult got = runFunctional(q, {20});
    EXPECT_EQ(got.returnValue, want.returnValue);
    EXPECT_EQ(got.memoryHash, want.memoryHash);
}

TEST(IrParser, HandlesHyperblockOutputWithHoles)
{
    // After formation, block ids have holes and instructions carry
    // predicates -- the parser must reproduce all of it.
    Program p = buildWorkload(*findWorkload("sieve"));
    ProfileData profile = prepareProgram(p);
    Session session;
    session.addProgramRef(p, profile);
    session.compile();

    roundTrip(p.fn);

    Program q;
    q.fn = parseFunctionIR(toString(p.fn));
    q.memory = p.memory;
    EXPECT_EQ(runFunctional(q).returnValue, runFunctional(p).returnValue);
}

TEST(IrParser, RejectsGarbage)
{
    EXPECT_EXIT(parseFunctionIR("nonsense"),
                ::testing::ExitedWithCode(1),
                "ir-parse: 1:.*expected 'function'");
    EXPECT_EXIT(parseFunctionIR("function f entry=bb0\n"
                                "blk (bb0, 1 insts):\n"
                                "  frobnicate v0 = v1\n"),
                ::testing::ExitedWithCode(1),
                "ir-parse: 3:.*unknown opcode");
    EXPECT_EXIT(parseFunctionIR("function f entry=bb0\n"
                                "  add v0 = v1, v2\n"),
                ::testing::ExitedWithCode(1),
                "ir-parse: 2:1: instruction before any block");
}

TEST(IrParser, IntegerCrashClassIsRecoverable)
{
    // Regression: these used to escape as uncaught std::out_of_range /
    // std::invalid_argument from stoll/stoul and kill the process. All
    // must surface as ir-parse diagnostics with a location instead.
    DiagnosticEngine imm_diags;
    std::optional<Function> imm = parseFunctionIR(
        "function f entry=bb0\n"
        "blk (bb0, 1 insts):\n"
        "  add v0 = #99999999999999999999, v1\n",
        imm_diags);
    EXPECT_FALSE(imm.has_value());
    ASSERT_EQ(imm_diags.errorCount(), 1u);
    EXPECT_EQ(imm_diags.diagnostics().front().phase, "ir-parse");
    EXPECT_NE(imm_diags.diagnostics().front().message.find(
                  "integer literal out of range"),
              std::string::npos);
    EXPECT_EQ(imm_diags.diagnostics().front().loc.line, 3);

    DiagnosticEngine dash_diags;
    std::optional<Function> dash = parseFunctionIR(
        "function f entry=bb0\n"
        "blk (bb0, 1 insts):\n"
        "  add v0 = #-, v1\n",
        dash_diags);
    EXPECT_FALSE(dash.has_value());
    ASSERT_EQ(dash_diags.errorCount(), 1u);
    EXPECT_NE(dash_diags.diagnostics().front().message.find(
                  "expected an integer"),
              std::string::npos);

    DiagnosticEngine blk_diags;
    std::optional<Function> blk = parseFunctionIR(
        "function f entry=bb99999999999999999999\n",
        blk_diags);
    EXPECT_FALSE(blk.has_value());
    ASSERT_EQ(blk_diags.errorCount(), 1u);
    EXPECT_NE(blk_diags.diagnostics().front().message.find(
                  "block id out of range"),
              std::string::npos);
}

TEST(IrParser, CollectsParseErrorAsDiagnostic)
{
    DiagnosticEngine diags;
    std::optional<Function> fn = parseFunctionIR("nonsense", diags);
    EXPECT_FALSE(fn.has_value());
    ASSERT_EQ(diags.errorCount(), 1u);
    const Diagnostic &d = diags.diagnostics().front();
    EXPECT_EQ(d.phase, "ir-parse");
    EXPECT_EQ(d.loc.line, 1);
    EXPECT_NE(d.message.find("expected 'function'"), std::string::npos);
}

} // namespace
} // namespace chf
