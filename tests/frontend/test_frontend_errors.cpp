/**
 * @file
 * Front-end error paths: TinyC rejects malformed and unsupported
 * programs with a fatal diagnostic (exit code 1) that names the phase
 * and the line:column of the offending construct, never silently
 * miscompiling. The same errors are collectable as Diagnostics via the
 * DiagnosticEngine overload of Session::frontend.
 */

#include <gtest/gtest.h>

#include "frontend/parser.h"
#include "pipeline/session.h"

namespace chf {
namespace {

void
compile(const char *source)
{
    Session::frontend(source);
}

using FrontendDeath = ::testing::Test;

// Each matcher pins the phase and the line:column of the offending
// token alongside the message, so a location regression is caught.

TEST(FrontendDeath, LexerRejectsBadCharacter)
{
    EXPECT_EXIT(compile("int main() { return 1 @ 2; }"),
                ::testing::ExitedWithCode(1),
                "lex: 1:23: unexpected character");
}

TEST(FrontendDeath, LexerRejectsUnterminatedComment)
{
    // Reported at the opening /*, not at end of input.
    EXPECT_EXIT(compile("int main() { /* oops"),
                ::testing::ExitedWithCode(1),
                "lex: 1:14: unterminated comment");
}

TEST(FrontendDeath, ParserRejectsMissingSemicolon)
{
    EXPECT_EXIT(compile("int main() { int x = 1 return x; }"),
                ::testing::ExitedWithCode(1), "parse: 1:24: expected");
}

TEST(FrontendDeath, ParserRejectsUnbalancedBraces)
{
    EXPECT_EXIT(compile("int main() { if (1) { return 1; }"),
                ::testing::ExitedWithCode(1),
                "parse: 1:.*unterminated block");
}

TEST(FrontendDeath, LoweringRejectsUnknownVariable)
{
    EXPECT_EXIT(compile("int main() { return nope; }"),
                ::testing::ExitedWithCode(1),
                "lower: 1:21: unknown variable");
}

TEST(FrontendDeath, LoweringRejectsUnknownFunction)
{
    EXPECT_EXIT(compile("int main() { return nope(3); }"),
                ::testing::ExitedWithCode(1),
                "lower: 1:21: call to unknown function");
}

TEST(FrontendDeath, LoweringRejectsRecursion)
{
    EXPECT_EXIT(compile("int f(int x) { return f(x - 1); }\n"
                        "int main() { return f(3); }"),
                ::testing::ExitedWithCode(1), "lower: 1:23: recursive");
}

TEST(FrontendDeath, LoweringRejectsArityMismatch)
{
    EXPECT_EXIT(compile("int f(int a, int b) { return a + b; }\n"
                        "int main() { return f(1); }"),
                ::testing::ExitedWithCode(1),
                "lower: 2:21: f expects 2 arguments");
}

TEST(FrontendDeath, LoweringRejectsIndexingScalar)
{
    EXPECT_EXIT(compile("int g;\nint main() { return g[0]; }"),
                ::testing::ExitedWithCode(1),
                "lower: 2:21: g is not an array");
}

TEST(FrontendDeath, LoweringRejectsBreakOutsideLoop)
{
    EXPECT_EXIT(compile("int main() { break; }"),
                ::testing::ExitedWithCode(1),
                "lower: 1:14: break outside loop");
}

TEST(FrontendDeath, LoweringRejectsRedeclaration)
{
    EXPECT_EXIT(compile("int main() { int x = 1; int x = 2; return x; }"),
                ::testing::ExitedWithCode(1),
                "lower: 1:25: redeclaration");
}

TEST(FrontendDeath, LoweringRejectsMissingMain)
{
    // No source location: the problem is the absence of a construct.
    EXPECT_EXIT(compile("int helper() { return 1; }"),
                ::testing::ExitedWithCode(1),
                "lower: no function named");
}

TEST(FrontendDeath, ParserRejectsTooManyInitializers)
{
    EXPECT_EXIT(compile("int a[2] = {1, 2, 3};\n"
                        "int main() { return a[0]; }"),
                ::testing::ExitedWithCode(1),
                "lower: 1:5: too many initializers");
}

// ----- DiagnosticEngine overload: collect instead of exit -----

TEST(FrontendDiagnostics, CollectsErrorWithLocation)
{
    DiagnosticEngine diags;
    std::optional<Program> p =
        Session::frontend("int main() { return nope; }", diags);
    EXPECT_FALSE(p.has_value());
    ASSERT_EQ(diags.count(Severity::Error), 1u);
    const Diagnostic &d = diags.diagnostics().front();
    EXPECT_EQ(d.phase, "lower");
    EXPECT_EQ(d.loc.line, 1);
    EXPECT_EQ(d.loc.column, 21);
    EXPECT_NE(d.message.find("unknown variable"), std::string::npos);
}

TEST(FrontendDiagnostics, SucceedsWithoutDiagnostics)
{
    DiagnosticEngine diags;
    std::optional<Program> p =
        Session::frontend("int main() { return 7; }", diags);
    ASSERT_TRUE(p.has_value());
    EXPECT_TRUE(diags.empty());
}

} // namespace
} // namespace chf
