#include "workloads/fuzz_harness.h"

#include <exception>
#include <map>
#include <utility>

#include "backend/asm_writer.h"
#include "hyperblock/merge.h"
#include "pipeline/session.h"
#include "sim/functional_sim.h"
#include "support/fault_inject.h"

namespace chf {

namespace {

const char *
policyShortName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::BreadthFirst: return "bfs";
      case PolicyKind::DepthFirst: return "dfs";
      case PolicyKind::Vliw: return "vliw";
      case PolicyKind::VliwConvergent: return "vliwc";
    }
    return "?";
}

/** What one matrix cell produced. */
struct CellOutput
{
    int64_t returnValue = 0;
    uint64_t userMemoryHash = 0;
    std::string asmText;
    std::string diagText;
};

/**
 * Generated programs terminate by construction (counter loops, trip
 * product capped, irreducible edges preserve every loop's exit path),
 * so a run that reaches this bound is itself a generator or compiler
 * bug: with throwOnBudget it surfaces as a shrinkable fuzz failure.
 */
constexpr uint64_t kSimBlockBudget = 20000000;

CellOutput
runCell(const Program &prepared, const ProfileData &profile,
        const FuzzConfig &config)
{
    Program unit = prepared.clone();

    SessionOptions conf = SessionOptions()
                              .withPolicy(config.policy)
                              .withThreads(config.threads);
    if (config.faultCorruptIr) {
        FaultSpec fault;
        fault.phase = "formation";
        fault.unit = 0;
        fault.kind = FaultSpec::Kind::CorruptIr;
        conf.withKeepGoing(true).withFault(fault);
    }

    Session session(conf);
    session.addProgramRef(unit, profile);
    SessionResult result = session.compile();

    FuncSimOptions simOptions;
    simOptions.maxBlocks = kSimBlockBudget;
    simOptions.throwOnBudget = true;
    FuncSimResult run = runFunctional(unit, {}, simOptions);

    CellOutput out;
    out.returnValue = run.returnValue;
    out.userMemoryHash = run.memory.userHash();
    out.asmText = writeFunctionAsm(unit.fn);
    out.diagText = result.diagnostics.toString();
    return out;
}

/**
 * One full matrix pass over one program. Returns an unshrunk failure
 * (seed/shape/repro filled in by the caller) or nullopt.
 */
std::optional<FuzzFailure>
checkProgram(uint64_t seed, const GeneratorShape &shape,
             const std::vector<FuzzConfig> &configs)
{
    FuzzFailure failure;
    failure.seed = seed;
    failure.shape = shape;

    Program raw;
    try {
        raw = buildGenerated(generateTinyC(seed, shape));
    } catch (const std::exception &e) {
        failure.config = "frontend";
        failure.detail =
            std::string("front end rejected generated source: ") +
            e.what();
        return failure;
    }

    FuncSimOptions simOptions;
    simOptions.maxBlocks = kSimBlockBudget;
    simOptions.throwOnBudget = true;
    FuncSimResult oracle;
    try {
        oracle = runFunctional(raw, {}, simOptions);
    } catch (const std::exception &e) {
        failure.config = "oracle";
        failure.detail =
            std::string("reference run exceeded the block budget "
                        "(generator termination bug): ") +
            e.what();
        return failure;
    }
    uint64_t oracleHash = oracle.memory.userHash();

    Program prepared = raw.clone();
    ProfileData profile = prepareProgram(prepared);

    // Cells that must agree byte-for-byte: same policy and fault, any
    // thread count, cold or warm memo. The group's first cell runs on
    // a cleared memo store; the rest reuse what it recorded.
    std::map<std::string, std::pair<std::string, CellOutput>> groups;

    for (const FuzzConfig &config : configs) {
        if (!groups.count(config.determinismGroup()))
            clearTrialMemo();
        CellOutput cell;
        try {
            cell = runCell(prepared, profile, config);
        } catch (const std::exception &e) {
            failure.config = config.label();
            failure.detail = std::string("compile threw: ") + e.what();
            return failure;
        }

        if (cell.returnValue != oracle.returnValue ||
            cell.userMemoryHash != oracleHash) {
            failure.config = config.label();
            failure.detail =
                concat("simulator mismatch: ret=", cell.returnValue,
                       " hash=", cell.userMemoryHash,
                       " vs oracle ret=", oracle.returnValue,
                       " hash=", oracleHash);
            return failure;
        }

        auto [it, inserted] = groups.try_emplace(
            config.determinismGroup(),
            std::make_pair(config.label(), cell));
        if (!inserted) {
            const auto &[refLabel, ref] = it->second;
            if (cell.asmText != ref.asmText) {
                failure.config = config.label() + " vs " + refLabel;
                failure.detail = "asm not byte-identical";
                return failure;
            }
            if (cell.diagText != ref.diagText) {
                failure.config = config.label() + " vs " + refLabel;
                failure.detail = "diagnostics not byte-identical";
                return failure;
            }
        }
    }
    return std::nullopt;
}

/** Candidate one-step shape reductions, most aggressive first. */
std::vector<GeneratorShape>
reductions(const GeneratorShape &shape)
{
    std::vector<GeneratorShape> out;
    auto add = [&](GeneratorShape s) {
        s.clamp();
        if (!(s == shape))
            out.push_back(s);
    };
    GeneratorShape s;

    s = shape; s.helperFunctions = 0; add(s);
    s = shape; s.unfoldDepth = 0; add(s);
    s = shape; s.irreducibleEdges = 0; add(s);
    s = shape; s.regions = std::max(1, shape.regions / 2); add(s);
    s = shape; s.maxDepth = std::max(1, shape.maxDepth - 1); add(s);
    s = shape; s.stmtsMax = std::max(1, shape.stmtsMax - 1); add(s);
    s = shape; s.exprDepth = std::max(1, shape.exprDepth - 1); add(s);
    s = shape; s.maxLoopTrip = std::max(1, shape.maxLoopTrip / 2); add(s);
    s = shape; s.switchCases = std::max(2, shape.switchCases / 2); add(s);
    s = shape; s.switchPct = 0; add(s);
    s = shape; s.hammockPct = 0; add(s);
    s = shape; s.meldPct = 0; add(s);
    s = shape; s.helperFunctions = shape.helperFunctions - 1; add(s);
    s = shape; s.unfoldDepth = shape.unfoldDepth / 2; add(s);
    s = shape; s.irreducibleEdges = shape.irreducibleEdges - 1; add(s);
    s = shape; s.mainParams = std::max(1, shape.mainParams - 1); add(s);
    return out;
}

std::string
reproLine(uint64_t seed, const GeneratorShape &shape)
{
    return "build/examples/fuzz_differential --gen=" +
           genSpecString(seed, shape);
}

} // namespace

std::string
FuzzConfig::label() const
{
    return concat("policy=", policyShortName(policy),
                  " threads=", threads,
                  " fault=", faultCorruptIr ? "corrupt-ir" : "none");
}

std::string
FuzzConfig::determinismGroup() const
{
    return concat("policy=", policyShortName(policy),
                  " fault=", faultCorruptIr ? "corrupt-ir" : "none");
}

std::vector<FuzzConfig>
fuzzFullMatrix()
{
    std::vector<FuzzConfig> out;
    for (PolicyKind policy :
         {PolicyKind::BreadthFirst, PolicyKind::DepthFirst,
          PolicyKind::Vliw, PolicyKind::VliwConvergent}) {
        for (bool fault : {false, true}) {
            for (int threads : {1, 4}) {
                FuzzConfig c;
                c.policy = policy;
                c.threads = threads;
                c.faultCorruptIr = fault;
                out.push_back(c);
            }
        }
    }
    return out;
}

std::vector<FuzzConfig>
fuzzSmokeMatrix()
{
    // Every axis is exercised, but not the full cross product: both
    // thread counts per policy (cold memo, then warm), plus one fault
    // cell.
    std::vector<FuzzConfig> out;
    for (PolicyKind policy :
         {PolicyKind::BreadthFirst, PolicyKind::VliwConvergent}) {
        for (int threads : {1, 4}) {
            FuzzConfig c;
            c.policy = policy;
            c.threads = threads;
            out.push_back(c);
        }
        FuzzConfig fault;
        fault.policy = policy;
        fault.threads = 4;
        fault.faultCorruptIr = true;
        out.push_back(fault);
    }
    return out;
}

std::optional<FuzzFailure>
fuzzOneProgram(uint64_t seed, const GeneratorShape &shape,
               const std::vector<FuzzConfig> &configs, bool shrink)
{
    std::optional<FuzzFailure> failure =
        checkProgram(seed, shape, configs);
    if (!failure || !shrink) {
        if (failure)
            failure->repro = reproLine(seed, failure->shape);
        return failure;
    }

    // Greedy shrink: keep applying the first one-step reduction that
    // still fails, until none does. The failing cell may change while
    // shrinking; any failure keeps the candidate.
    bool progress = true;
    while (progress) {
        progress = false;
        for (const GeneratorShape &candidate :
             reductions(failure->shape)) {
            std::optional<FuzzFailure> smaller =
                checkProgram(seed, candidate, configs);
            if (smaller) {
                failure = smaller;
                progress = true;
                break;
            }
        }
    }
    failure->repro = reproLine(seed, failure->shape);
    return failure;
}

FuzzReport
runFuzzCampaign(uint64_t first_seed, int count,
                const std::vector<FuzzConfig> &configs, bool shrink,
                std::ostream *log)
{
    const std::vector<std::string> &shapes = shapeNames();
    FuzzReport report;
    for (int i = 0; i < count; ++i) {
        uint64_t seed = first_seed + static_cast<uint64_t>(i);
        GeneratorShape shape;
        namedShape(shapes[static_cast<size_t>(i) % shapes.size()],
                   &shape);
        if (log) {
            *log << "[" << (i + 1) << "/" << count << "] seed=" << seed
                 << " shape=" << shapes[static_cast<size_t>(i) %
                                        shapes.size()]
                 << std::endl;
        }
        std::optional<FuzzFailure> failure =
            fuzzOneProgram(seed, shape, configs, shrink);
        ++report.programs;
        report.configsRun += static_cast<int>(configs.size());
        if (failure) {
            report.failure = std::move(failure);
            return report;
        }
    }
    return report;
}

} // namespace chf
