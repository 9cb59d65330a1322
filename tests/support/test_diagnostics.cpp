/**
 * @file
 * Unit tests for the diagnostics subsystem and the fault-injection
 * spec parser/injector that drive the transactional pipeline.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "ir/verifier.h"
#include "pipeline/session.h"
#include "support/diagnostics.h"
#include "support/fault_inject.h"

namespace chf {
namespace {

TEST(Diagnostic, ToStringIncludesAllParts)
{
    Diagnostic d;
    d.severity = Severity::Error;
    d.phase = "formation";
    d.function = "main";
    d.block = 3;
    d.message = "broken invariant";
    std::string text = d.toString();
    EXPECT_NE(text.find("error"), std::string::npos) << text;
    EXPECT_NE(text.find("formation"), std::string::npos) << text;
    EXPECT_NE(text.find("main"), std::string::npos) << text;
    EXPECT_NE(text.find("bb3"), std::string::npos) << text;
    EXPECT_NE(text.find("broken invariant"), std::string::npos) << text;
}

TEST(Diagnostic, ToStringOmitsUnknownParts)
{
    Diagnostic d = Diagnostic::error("lex", "bad token");
    std::string text = d.toString();
    EXPECT_EQ(text.find("bb"), std::string::npos) << text;
    EXPECT_EQ(text.find("fn '"), std::string::npos) << text;
}

TEST(Diagnostic, InputErrorCarriesLocation)
{
    Diagnostic d =
        Diagnostic::inputError("parse", SourceLoc::at(4, 7), "oops");
    EXPECT_TRUE(d.loc.valid());
    std::string text = d.toString();
    EXPECT_NE(text.find("4:7"), std::string::npos) << text;
}

TEST(Diagnostic, LineOnlyLocationOmitsColumn)
{
    Diagnostic d =
        Diagnostic::inputError("ir-parse", SourceLoc::at(9), "oops");
    std::string text = d.toString();
    EXPECT_NE(text.find("9:"), std::string::npos) << text;
    EXPECT_EQ(text.find("9:0"), std::string::npos) << text;
}

TEST(DiagnosticEngine, CountsBySeverity)
{
    DiagnosticEngine engine;
    EXPECT_TRUE(engine.empty());
    engine.error("formation", "first");
    engine.note("formation", "rolled back");
    engine.error("regalloc", "second");
    EXPECT_FALSE(engine.empty());
    EXPECT_EQ(engine.errorCount(), 2u);
    EXPECT_EQ(engine.count(Severity::Note), 1u);
    EXPECT_EQ(engine.diagnostics().size(), 3u);
}

TEST(DiagnosticEngine, HasPhaseMatchesExactly)
{
    DiagnosticEngine engine;
    engine.error("unroll", "x");
    EXPECT_TRUE(engine.hasPhase("unroll"));
    EXPECT_FALSE(engine.hasPhase("unrol"));
    EXPECT_FALSE(engine.hasPhase("peel"));
    engine.clear();
    EXPECT_FALSE(engine.hasPhase("unroll"));
    EXPECT_TRUE(engine.empty());
}

TEST(DiagnosticEngine, ToStringOneLinePerDiagnostic)
{
    DiagnosticEngine engine;
    engine.error("a", "one");
    engine.error("b", "two");
    std::string text = engine.toString();
    EXPECT_NE(text.find("one"), std::string::npos);
    EXPECT_NE(text.find("two"), std::string::npos);
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
}

TEST(RecoverableError, WhatMatchesDiagnostic)
{
    try {
        throwInputError("lower", SourceLoc::at(2, 5), "bad thing");
        FAIL() << "expected throw";
    } catch (const RecoverableError &e) {
        EXPECT_EQ(e.diagnostic().phase, "lower");
        EXPECT_EQ(e.diagnostic().loc.line, 2);
        EXPECT_EQ(e.diagnostic().loc.column, 5);
        EXPECT_STREQ(e.what(), e.diagnostic().toString().c_str());
    }
}

TEST(FaultSpecParse, FullSpec)
{
    FaultSpec spec;
    std::string err;
    ASSERT_TRUE(parseFaultSpec("phase:formation,fn:2,kind:corrupt-ir",
                               &spec, &err))
        << err;
    EXPECT_EQ(spec.phase, "formation");
    EXPECT_EQ(spec.occurrence, 2);
    EXPECT_EQ(spec.kind, FaultSpec::Kind::CorruptIr);
}

TEST(FaultSpecParse, DefaultsAndAliases)
{
    FaultSpec spec;
    std::string err;
    ASSERT_TRUE(parseFaultSpec("kind:throw", &spec, &err)) << err;
    EXPECT_TRUE(spec.phase.empty() || spec.phase == "any");
    EXPECT_EQ(spec.occurrence, 0);
    EXPECT_EQ(spec.kind, FaultSpec::Kind::Throw);

    // "occ" is an alias for "fn"; field order is free.
    ASSERT_TRUE(parseFaultSpec("kind:corrupt-ir,occ:1,phase:peel",
                               &spec, &err))
        << err;
    EXPECT_EQ(spec.phase, "peel");
    EXPECT_EQ(spec.occurrence, 1);
    EXPECT_EQ(spec.kind, FaultSpec::Kind::CorruptIr);
}

TEST(FaultSpecParse, RejectsGarbage)
{
    FaultSpec spec;
    std::string err;
    EXPECT_FALSE(parseFaultSpec("kind:explode", &spec, &err));
    EXPECT_FALSE(err.empty());
    err.clear();
    EXPECT_FALSE(parseFaultSpec("bogus:1", &spec, &err));
    EXPECT_FALSE(err.empty());
    err.clear();
    EXPECT_FALSE(parseFaultSpec("fn:notanumber", &spec, &err));
    EXPECT_FALSE(err.empty());
}

class FaultInjectorTest : public ::testing::Test
{
  protected:
    void TearDown() override { FaultInjector::instance().disarm(); }

    Function
    makeFunction()
    {
        Program program = Session::frontend(
            "int main() { int x = 3; if (x) { x = x + 1; } return x; }");
        return std::move(program.fn);
    }
};

TEST_F(FaultInjectorTest, FiresOnMatchingOccurrence)
{
    FaultSpec spec;
    spec.phase = "formation";
    spec.occurrence = 1;
    spec.kind = FaultSpec::Kind::Throw;
    FaultInjector &injector = FaultInjector::instance();
    injector.arm(spec);
    ASSERT_TRUE(injector.armed());

    Function fn = makeFunction();
    // Occurrence 0 does not fire; occurrence 1 throws.
    faultInjectionPoint("formation", fn);
    EXPECT_EQ(injector.firedCount(), 0u);
    EXPECT_THROW(faultInjectionPoint("formation", fn),
                 RecoverableError);
    EXPECT_EQ(injector.firedCount(), 1u);
    EXPECT_EQ(injector.lastSite(), "formation#1");
}

TEST_F(FaultInjectorTest, PhaseFilterSkipsOtherPhases)
{
    FaultSpec spec;
    spec.phase = "regalloc";
    FaultInjector::instance().arm(spec);

    Function fn = makeFunction();
    faultInjectionPoint("formation", fn);
    faultInjectionPoint("unroll", fn);
    EXPECT_EQ(FaultInjector::instance().firedCount(), 0u);
    EXPECT_THROW(faultInjectionPoint("regalloc", fn),
                 RecoverableError);
    EXPECT_EQ(FaultInjector::instance().firedCount(), 1u);
}

TEST_F(FaultInjectorTest, CorruptIrIsCaughtByVerifier)
{
    FaultSpec spec;
    spec.kind = FaultSpec::Kind::CorruptIr;
    FaultInjector::instance().arm(spec);

    Function fn = makeFunction();
    ASSERT_TRUE(verify(fn).empty());
    faultInjectionPoint("formation", fn);
    EXPECT_EQ(FaultInjector::instance().firedCount(), 1u);
    EXPECT_FALSE(verify(fn).empty())
        << "injected corruption must be verifier-detectable";
}

TEST_F(FaultInjectorTest, DisarmStopsFiring)
{
    FaultSpec spec;
    FaultInjector::instance().arm(spec);
    FaultInjector::instance().disarm();
    EXPECT_FALSE(FaultInjector::instance().armed());

    Function fn = makeFunction();
    faultInjectionPoint("formation", fn); // must not throw
    EXPECT_EQ(FaultInjector::instance().firedCount(), 0u);
}

} // namespace
} // namespace chf
