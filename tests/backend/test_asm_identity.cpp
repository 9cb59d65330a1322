/**
 * @file
 * Byte-identity gate for backend output.
 *
 * Every unit below is compiled source to assembly through a Session
 * and the 64-bit FNV-1a digest of its writeFunctionAsm text is compared
 * with asm_digests.inc. The table was recorded with the original
 * backend: a whole-function Liveness per emitted block, a fanout pass
 * that rescanned its block after every inserted mov, and a spill loop
 * that rewrote every block once per spilled value. The single-pass
 * backend must reproduce those bytes exactly.
 *
 * Units: synth64 (one 518-block function), the 24 Table 1/2 kernels
 * under BB and (IUPO), and the generator's "bench" shape at seeds
 * 1..200 -- the unit sets of the perfbench workloads. On a mismatch the
 * test prints the full table it measured, in the .inc format, so a
 * deliberate output change can be re-recorded in one paste.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "backend/asm_writer.h"
#include "hyperblock/phase_ordering.h"
#include "pipeline/session.h"
#include "support/hash.h"
#include "workloads/generator.h"
#include "workloads/workloads.h"

namespace chf {
namespace {

struct RecordedDigest
{
    const char *unit;
    uint64_t digest;
};

const RecordedDigest kRecorded[] = {
#include "asm_digests.inc"
};

using UnitAsm = std::vector<std::pair<std::string, std::string>>;

uint64_t
digestOf(const std::string &text)
{
    Hash64 h;
    h.bytes(text.data(), text.size());
    return h.digest();
}

/** Compare every unit's digest with the table; print it on mismatch. */
void
expectRecorded(const UnitAsm &units)
{
    std::map<std::string, uint64_t> recorded;
    for (const RecordedDigest &r : kRecorded)
        recorded[r.unit] = r.digest;

    std::string table;
    size_t mismatches = 0;
    for (const auto &[name, text] : units) {
        uint64_t got = digestOf(text);
        char line[160];
        std::snprintf(line, sizeof line, "{\"%s\", 0x%016llxull},\n",
                      name.c_str(), static_cast<unsigned long long>(got));
        table += line;
        auto it = recorded.find(name);
        if (it == recorded.end() || it->second != got) {
            ++mismatches;
            ADD_FAILURE() << name << ": asm digest " << line
                          << (it == recorded.end() ? "not recorded"
                                                   : "differs");
        }
    }
    if (mismatches)
        std::printf("Measured digests:\n%s", table.c_str());
}

TEST(BackendAsmIdentity, Synth64)
{
    Workload w = synthFormationWorkload(64);
    Session session(SessionOptions().withPipeline(Pipeline::IUPO_fused));
    size_t unit = session.addSource(w.source, w.name, w.args);
    session.compile(1);
    expectRecorded({{"synth64", writeFunctionAsm(session.program(unit).fn)}});
}

TEST(BackendAsmIdentity, TableKernels)
{
    UnitAsm units;
    for (const Workload &w : microbenchmarks()) {
        for (Pipeline p : {Pipeline::BB, Pipeline::IUPO_fused}) {
            Program program = buildWorkload(w);
            ProfileData profile = prepareProgram(program);
            Session session(SessionOptions().withPipeline(p));
            size_t unit =
                session.addProgram(std::move(program), std::move(profile));
            session.compile(1);
            units.emplace_back(w.name + "/" + pipelineName(p),
                               writeFunctionAsm(session.program(unit).fn));
        }
    }
    EXPECT_EQ(units.size(), 48u);
    expectRecorded(units);
}

TEST(BackendAsmIdentity, GeneratedBenchSeeds)
{
    GeneratorShape shape;
    ASSERT_TRUE(namedShape("bench", &shape));
    Session session(SessionOptions().withThreads(4));
    std::vector<std::string> names;
    for (uint64_t seed = 1; seed <= 200; ++seed) {
        GeneratedProgram g = generateTinyC(seed, shape);
        names.push_back("gen_" + std::to_string(seed));
        session.addSource(g.source, names.back(), g.args);
    }
    session.compile(4);
    UnitAsm units;
    for (size_t i = 0; i < names.size(); ++i)
        units.emplace_back(names[i], writeFunctionAsm(session.program(i).fn));
    expectRecorded(units);
}

} // namespace
} // namespace chf
