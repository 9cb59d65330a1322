/**
 * @file
 * Front-end tests: lexer, parser, and end-to-end lowering checked
 * against expected program results via the functional simulator.
 */

#include <gtest/gtest.h>

#include "frontend/lexer.h"
#include "frontend/lowering.h"
#include "frontend/parser.h"
#include "hyperblock/phase_ordering.h"
#include "ir/verifier.h"
#include "pipeline/session.h"
#include "sim/functional_sim.h"

namespace chf {
namespace {

// ----- Lexer -----

TEST(Lexer, TokenKinds)
{
    auto toks = lex("int x = 42; // comment\nx <<= 2");
    ASSERT_GE(toks.size(), 5u);
    EXPECT_EQ(toks[0].kind, TokenKind::KwInt);
    EXPECT_EQ(toks[1].kind, TokenKind::Ident);
    EXPECT_EQ(toks[1].text, "x");
    EXPECT_EQ(toks[2].kind, TokenKind::Assign);
    EXPECT_EQ(toks[3].kind, TokenKind::IntLit);
    EXPECT_EQ(toks[3].intValue, 42);
    EXPECT_EQ(toks[4].kind, TokenKind::Semicolon);
}

TEST(Lexer, TwoCharOperators)
{
    auto toks = lex("== != <= >= << >> && || += -=");
    std::vector<TokenKind> expected = {
        TokenKind::Eq,     TokenKind::Ne,       TokenKind::Le,
        TokenKind::Ge,     TokenKind::Shl,      TokenKind::Shr,
        TokenKind::AmpAmp, TokenKind::PipePipe, TokenKind::PlusAssign,
        TokenKind::MinusAssign, TokenKind::End};
    ASSERT_EQ(toks.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(toks[i].kind, expected[i]) << "token " << i;
}

TEST(Lexer, LineNumbersAndComments)
{
    auto toks = lex("a\n/* multi\nline */ b\nc");
    ASSERT_EQ(toks.size(), 4u);
    EXPECT_EQ(toks[0].line, 1);
    EXPECT_EQ(toks[1].line, 3);
    EXPECT_EQ(toks[2].line, 4);
}

// ----- Parser -----

TEST(Parser, GlobalsAndFunctions)
{
    auto unit = parseTinyC(
        "int g = 7;\n"
        "int arr[10] = {1, 2, 3};\n"
        "int helper(int a, int b) { return a + b; }\n"
        "int main() { return helper(g, 2); }\n");
    ASSERT_EQ(unit.globals.size(), 2u);
    EXPECT_EQ(unit.globals[0].name, "g");
    EXPECT_EQ(unit.globals[0].arraySize, -1);
    EXPECT_EQ(unit.globals[1].arraySize, 10);
    ASSERT_EQ(unit.globals[1].init.size(), 3u);
    ASSERT_EQ(unit.functions.size(), 2u);
    EXPECT_EQ(unit.functions[0].params.size(), 2u);
    EXPECT_NE(unit.findFunction("main"), nullptr);
    EXPECT_EQ(unit.findFunction("nope"), nullptr);
}

TEST(Parser, Precedence)
{
    auto unit = parseTinyC("int main() { return 2 + 3 * 4; }");
    const Stmt &ret = *unit.functions[0].body->stmts[0];
    ASSERT_EQ(ret.kind, Stmt::Kind::Return);
    // Must parse as 2 + (3 * 4).
    EXPECT_EQ(ret.value->op, "+");
    EXPECT_EQ(ret.value->rhs->op, "*");
}

// ----- End-to-end: compile + run -----

int64_t
runSource(const std::string &source, std::vector<int64_t> args = {})
{
    Program program = Session::frontend(source);
    EXPECT_TRUE(verify(program.fn).empty());
    return runFunctional(program, args).returnValue;
}

TEST(Lowering, Arithmetic)
{
    EXPECT_EQ(runSource("int main() { return 2 + 3 * 4 - 6 / 2; }"), 11);
    EXPECT_EQ(runSource("int main() { return (2 + 3) * 4 % 7; }"), 6);
    EXPECT_EQ(runSource("int main() { return -5 + 3; }"), -2);
    EXPECT_EQ(runSource("int main() { return 1 << 10; }"), 1024);
    EXPECT_EQ(runSource("int main() { return 255 >> 4; }"), 15);
    EXPECT_EQ(runSource("int main() { return ~0; }"), -1);
    EXPECT_EQ(runSource("int main() { return 12 & 10; }"), 8);
    EXPECT_EQ(runSource("int main() { return 12 | 3; }"), 15);
    EXPECT_EQ(runSource("int main() { return 12 ^ 10; }"), 6);
}

TEST(Lowering, DivisionByZeroIsDefined)
{
    EXPECT_EQ(runSource("int main() { int z = 0; return 5 / z; }"), 0);
    EXPECT_EQ(runSource("int main() { int z = 0; return 5 % z; }"), 0);
}

TEST(Lowering, Comparisons)
{
    EXPECT_EQ(runSource("int main() { return 3 < 4; }"), 1);
    EXPECT_EQ(runSource("int main() { return 4 <= 3; }"), 0);
    EXPECT_EQ(runSource("int main() { return 4 == 4; }"), 1);
    EXPECT_EQ(runSource("int main() { return 4 != 4; }"), 0);
    EXPECT_EQ(runSource("int main() { return !5; }"), 0);
    EXPECT_EQ(runSource("int main() { return !0; }"), 1);
}

TEST(Lowering, ShortCircuit)
{
    // The right side of && must not execute when the left is false:
    // here it would store to g, observable in the result.
    const char *src =
        "int g = 0;\n"
        "int touch() { g = 1; return 1; }\n"
        "int main() {\n"
        "  int a = 0 && touch();\n"
        "  return g * 10 + a;\n"
        "}\n";
    EXPECT_EQ(runSource(src), 0);

    const char *src2 =
        "int g = 0;\n"
        "int touch() { g = 1; return 0; }\n"
        "int main() {\n"
        "  int a = 1 || touch();\n"
        "  return g * 10 + a;\n"
        "}\n";
    EXPECT_EQ(runSource(src2), 1);

    EXPECT_EQ(runSource("int main() { return 2 && 3; }"), 1);
    EXPECT_EQ(runSource("int main() { return 0 || 7; }"), 1);
}

TEST(Lowering, IfElse)
{
    const char *src =
        "int main(int x) {\n"
        "  if (x > 10) { return 1; } else { return 2; }\n"
        "}\n";
    EXPECT_EQ(runSource(src, {11}), 1);
    EXPECT_EQ(runSource(src, {10}), 2);
}

TEST(Lowering, WhileLoop)
{
    const char *src =
        "int main(int n) {\n"
        "  int sum = 0; int i = 0;\n"
        "  while (i < n) { sum += i; i += 1; }\n"
        "  return sum;\n"
        "}\n";
    EXPECT_EQ(runSource(src, {10}), 45);
    EXPECT_EQ(runSource(src, {0}), 0);
}

TEST(Lowering, ForLoopBreakContinue)
{
    const char *src =
        "int main() {\n"
        "  int sum = 0;\n"
        "  for (int i = 0; i < 100; i += 1) {\n"
        "    if (i % 2 == 0) { continue; }\n"
        "    if (i > 10) { break; }\n"
        "    sum += i;\n"
        "  }\n"
        "  return sum;\n"  // 1+3+5+7+9 = 25
        "}\n";
    EXPECT_EQ(runSource(src), 25);
}

TEST(Lowering, GlobalsAndArrays)
{
    const char *src =
        "int total = 5;\n"
        "int data[8] = {3, 1, 4, 1, 5, 9, 2, 6};\n"
        "int main() {\n"
        "  int sum = total;\n"
        "  for (int i = 0; i < 8; i += 1) { sum += data[i]; }\n"
        "  data[0] = sum;\n"
        "  return data[0];\n"
        "}\n";
    EXPECT_EQ(runSource(src), 36);
}

TEST(Lowering, InlinedCalls)
{
    const char *src =
        "int square(int x) { return x * x; }\n"
        "int sumsq(int a, int b) { return square(a) + square(b); }\n"
        "int main() { return sumsq(3, 4); }\n";
    EXPECT_EQ(runSource(src), 25);
}

TEST(Lowering, InlinedCallEarlyReturn)
{
    const char *src =
        "int clamp(int x) {\n"
        "  if (x > 100) { return 100; }\n"
        "  if (x < 0) { return 0; }\n"
        "  return x;\n"
        "}\n"
        "int main(int v) { return clamp(v) + clamp(v * 2); }\n";
    EXPECT_EQ(runSource(src, {60}), 160);
    EXPECT_EQ(runSource(src, {-5}), 0);
    EXPECT_EQ(runSource(src, {30}), 90);
}

TEST(Lowering, FunctionFallthroughReturnsZero)
{
    const char *src =
        "int maybe(int x) { if (x) { return 9; } }\n"
        "int main() { return maybe(0) + maybe(1); }\n";
    EXPECT_EQ(runSource(src), 9);
}

TEST(Lowering, NestedLoops)
{
    const char *src =
        "int main() {\n"
        "  int acc = 0;\n"
        "  for (int i = 0; i < 5; i += 1) {\n"
        "    int j = 0;\n"
        "    while (j < i) { acc += 1; j += 1; }\n"
        "  }\n"
        "  return acc;\n"  // 0+1+2+3+4 = 10
        "}\n";
    EXPECT_EQ(runSource(src), 10);
}

TEST(Lowering, CompoundAssignOnArray)
{
    const char *src =
        "int a[4] = {10, 20, 30, 40};\n"
        "int main() {\n"
        "  a[1] += 5; a[2] *= 2; a[3] -= 1;\n"
        "  return a[0] + a[1] + a[2] + a[3];\n"
        "}\n";
    EXPECT_EQ(runSource(src), 10 + 25 + 60 + 39);
}

// ----- Functional simulator details -----

TEST(FunctionalSim, CollectsCounts)
{
    Program program = Session::frontend(
        "int main() {\n"
        "  int s = 0;\n"
        "  for (int i = 0; i < 10; i += 1) { s += i; }\n"
        "  return s;\n"
        "}\n");
    auto result = runFunctional(program);
    EXPECT_EQ(result.returnValue, 45);
    EXPECT_GT(result.blocksExecuted, 10u);
    EXPECT_GE(result.instsFetched, result.instsExecuted);
    // Block counts sum to total blocks executed.
    uint64_t sum = 0;
    for (uint64_t c : result.blockCounts)
        sum += c;
    EXPECT_EQ(sum, result.blocksExecuted);
}

TEST(FunctionalSim, ProfileAnnotation)
{
    Program program = Session::frontend(
        "int main() {\n"
        "  int s = 0;\n"
        "  for (int i = 0; i < 7; i += 1) { s += i; }\n"
        "  return s;\n"
        "}\n");
    ProfileData profile = profileProgram(program);

    // Every branch of every reachable block now carries a frequency;
    // the loop back-edge branch fires 7 times.
    bool found_loop_branch = false;
    for (BlockId id : program.fn.blockIds()) {
        for (const auto &inst : program.fn.block(id)->insts) {
            if (inst.isBranch() && inst.freq == 7.0)
                found_loop_branch = true;
        }
    }
    EXPECT_TRUE(found_loop_branch);
    EXPECT_FALSE(profile.edges.empty());
}

TEST(FunctionalSim, TripHistogram)
{
    Program program = Session::frontend(
        "int main() {\n"
        "  int total = 0;\n"
        "  for (int outer = 1; outer <= 4; outer += 1) {\n"
        "    int j = 0;\n"
        "    while (j < outer) { total += 1; j += 1; }\n"
        "  }\n"
        "  return total;\n"
        "}\n");
    ProfileData profile = profileProgram(program);

    // The inner while loop runs with trip counts 1, 2, 3, 4.
    bool found = false;
    for (BlockId id : program.fn.blockIds()) {
        if (profile.trips.has(id) &&
            profile.trips.meanTrips(id) > 1.9 &&
            profile.trips.meanTrips(id) < 3.5) {
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(FunctionalSim, MemoryHashDetectsStores)
{
    const char *src =
        "int out[4];\n"
        "int main(int v) { out[2] = v; return 0; }\n";
    Program p1 = Session::frontend(src);
    auto r1 = runFunctional(p1, {5});
    auto r2 = runFunctional(p1, {6});
    EXPECT_NE(r1.memoryHash, r2.memoryHash);
    EXPECT_EQ(r1.memory.readIn("out", 2), 5);
}

} // namespace
} // namespace chf

namespace chf {
namespace {

// ----- do-while and the conditional operator (appended) -----

TEST(Lowering, DoWhileRunsBodyFirst)
{
    const char *src =
        "int main(int n) {\n"
        "  int count = 0;\n"
        "  int i = 0;\n"
        "  do { count += 1; i += 1; } while (i < n);\n"
        "  return count;\n"
        "}\n";
    Program p = Session::frontend(src);
    EXPECT_EQ(runFunctional(p, {5}).returnValue, 5);
    // Bottom-tested: the body executes at least once even when the
    // condition is false on entry.
    EXPECT_EQ(runFunctional(p, {0}).returnValue, 1);
    EXPECT_EQ(runFunctional(p, {-3}).returnValue, 1);
}

TEST(Lowering, DoWhileBreakContinue)
{
    const char *src =
        "int main() {\n"
        "  int s = 0; int i = 0;\n"
        "  do {\n"
        "    i += 1;\n"
        "    if (i % 2 == 0) { continue; }\n"
        "    if (i > 7) { break; }\n"
        "    s += i;\n"
        "  } while (i < 100);\n"
        "  return s;\n"  // 1+3+5+7 = 16
        "}\n";
    Program p = Session::frontend(src);
    EXPECT_EQ(runFunctional(p).returnValue, 16);
}

TEST(Lowering, TernarySelectsAndShortCircuits)
{
    const char *src =
        "int g = 0;\n"
        "int touch(int v) { g = v; return v; }\n"
        "int main(int x) {\n"
        "  int r = x > 10 ? touch(1) : touch(2);\n"
        "  return r * 10 + g;\n"
        "}\n";
    Program p = Session::frontend(src);
    // Only the selected arm executes (g reflects it).
    EXPECT_EQ(runFunctional(p, {11}).returnValue, 11);
    EXPECT_EQ(runFunctional(p, {3}).returnValue, 22);
}

TEST(Lowering, TernaryNestsRightAssociative)
{
    const char *src =
        "int main(int x) {\n"
        "  return x < 0 ? 0 - 1 : x == 0 ? 0 : 1;\n"
        "}\n";
    Program p = Session::frontend(src);
    EXPECT_EQ(runFunctional(p, {-5}).returnValue, -1);
    EXPECT_EQ(runFunctional(p, {0}).returnValue, 0);
    EXPECT_EQ(runFunctional(p, {9}).returnValue, 1);
}

TEST(Lowering, DoWhileSurvivesAllPipelines)
{
    const char *src =
        "int d[32];\n"
        "int main() {\n"
        "  int i = 0;\n"
        "  do { d[i] = i * i; i += 1; } while (i < 32);\n"
        "  int s = 0;\n"
        "  int j = 0;\n"
        "  do { s += d[j] > 100 ? 1 : 0; j += 1; } while (j < 32);\n"
        "  return s;\n"
        "}\n";
    Program base = Session::frontend(src);
    ProfileData profile = prepareProgram(base);
    FuncSimResult oracle = runFunctional(base);
    for (Pipeline pipeline :
         {Pipeline::UPIO, Pipeline::IUPO, Pipeline::IUPO_fused}) {
        Program compiled;
        compiled.fn = base.fn.clone();
        compiled.memory = base.memory;
        compiled.defaultArgs = base.defaultArgs;
        Session session(SessionOptions().withPipeline(pipeline));
        session.addProgramRef(compiled, profile);
        session.compile();
        FuncSimResult run = runFunctional(compiled);
        EXPECT_EQ(run.returnValue, oracle.returnValue)
            << pipelineName(pipeline);
        EXPECT_EQ(run.memoryHash, oracle.memoryHash)
            << pipelineName(pipeline);
    }
}

} // namespace
} // namespace chf
