#include "tuner/auto_tuner.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "sim/functional_sim.h"
#include "sim/timing_sim.h"
#include "support/fatal.h"

namespace chf {

namespace {

/** Deep copy of a program (Function holds unique_ptrs). */
Program
cloneProgram(const Program &program)
{
    Program copy;
    copy.fn = program.fn.clone();
    copy.memory = program.memory;
    copy.defaultArgs = program.defaultArgs;
    return copy;
}

size_t
staticInsts(const Function &fn)
{
    size_t n = 0;
    for (BlockId id : fn.blockIds())
        n += fn.block(id)->size();
    return n;
}

/** A candidate waiting to be evaluated. */
struct Candidate
{
    PolicyKind policy;
    TargetModel target;
    std::string label;
};

/** Dedupe key: every searched knob, plus the policy. */
std::string
candidateKey(PolicyKind policy, const TargetModel &target)
{
    return concat(static_cast<int>(policy), "/", target.maxInsts, "/",
                  target.spillHeadroom);
}

std::string
candidateLabel(PolicyKind policy, const TargetModel &target)
{
    return concat(policyKindName(policy), "/insts", target.maxInsts,
                  "/headroom", target.spillHeadroom);
}

/** Fixed-precision double rendering so reports are byte-stable. */
std::string
fmtDouble(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4f", v);
    return buf;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

/** p dominates q: no worse on every axis, better on at least one. */
bool
dominates(const TunerPoint &p, const TunerPoint &q)
{
    bool no_worse = p.blocks <= q.blocks &&
                    p.codeGrowth <= q.codeGrowth && p.cycles <= q.cycles;
    bool better = p.blocks < q.blocks || p.codeGrowth < q.codeGrowth ||
                  p.cycles < q.cycles;
    return no_worse && better;
}

} // namespace

AutoTuner::AutoTuner(TunerOptions options) : opts(std::move(options))
{
    std::string problem = opts.baseTarget.validate();
    if (!problem.empty())
        fatal(concat("AutoTuner base target: ", problem));
    if (opts.policies.empty())
        fatal("AutoTuner wants at least one policy");
    if (opts.maxTrials == 0)
        fatal("AutoTuner wants a positive trial budget");
}

TunerReport
AutoTuner::tune(const Program &prepared, const ProfileData &profile)
{
    TunerReport report;
    report.baselineInsts = staticInsts(prepared.fn);
    FuncSimResult oracle = runFunctional(prepared);

    // Evaluate a batch of candidates as one Session: units run in
    // parallel on the Session's workers and reuse the trial-memo
    // store, and results come back bit-identical at any thread count.
    std::set<std::string> seen;
    auto evaluate = [&](const std::vector<Candidate> &batch) {
        if (batch.empty())
            return;
        Session session(SessionOptions().withThreads(opts.threads));
        for (const Candidate &c : batch) {
            session.addProgram(
                cloneProgram(prepared), profile, c.label,
                SessionOptions()
                    .withPipeline(opts.pipeline)
                    .withPolicy(c.policy)
                    .withTarget(c.target));
        }
        SessionResult compiled = session.compile();
        for (size_t i = 0; i < batch.size(); ++i) {
            const Program &program = session.program(i);
            FuncSimResult functional = runFunctional(program);
            if (functional.returnValue != oracle.returnValue ||
                functional.memoryHash != oracle.memoryHash) {
                fatal(concat("semantics changed under ",
                             batch[i].label));
            }
            TunerPoint point;
            point.label = batch[i].label;
            point.policy = batch[i].policy;
            point.target = batch[i].target;
            point.blocks = compiled.functions[i].blocks;
            point.insts = compiled.functions[i].insts;
            point.codeGrowth =
                report.baselineInsts
                    ? static_cast<double>(point.insts) /
                          static_cast<double>(report.baselineInsts)
                    : 1.0;
            point.cycles = runTiming(program).cycles;
            report.points.push_back(std::move(point));
        }
    };

    // Budget-governed admission: false once the budget is spent.
    size_t admitted = 0;
    auto admit = [&](PolicyKind policy, const TargetModel &target,
                     std::vector<Candidate> &batch, bool count_drop) {
        std::string key = candidateKey(policy, target);
        if (seen.count(key))
            return;
        if (admitted >= opts.maxTrials) {
            if (count_drop)
                ++report.truncated;
            return;
        }
        seen.insert(key);
        ++admitted;
        batch.push_back(
            {policy, target, candidateLabel(policy, target)});
    };

    // Grid pass: policies × maxInsts × spillHeadroom, in declaration
    // order so the report order is reproducible.
    std::vector<size_t> insts_grid = opts.maxInstsGrid;
    if (insts_grid.empty())
        insts_grid.push_back(opts.baseTarget.maxInsts);
    std::vector<size_t> headroom_grid = opts.spillHeadroomGrid;
    if (headroom_grid.empty())
        headroom_grid.push_back(opts.baseTarget.spillHeadroom);

    std::vector<Candidate> grid;
    for (PolicyKind policy : opts.policies) {
        for (size_t max_insts : insts_grid) {
            for (size_t headroom : headroom_grid) {
                TargetModel variant = opts.baseTarget;
                variant.maxInsts = max_insts;
                variant.spillHeadroom = headroom;
                if (!variant.validate().empty())
                    continue;
                admit(policy, variant, grid, /*count_drop=*/true);
            }
        }
    }
    evaluate(grid);
    if (report.points.empty())
        fatal("AutoTuner: no valid candidate survived the grid");

    // The incumbent: fewest cycles, deterministic tie-break.
    auto best_index = [&]() {
        size_t best = 0;
        for (size_t i = 1; i < report.points.size(); ++i) {
            const TunerPoint &p = report.points[i];
            const TunerPoint &b = report.points[best];
            if (p.cycles < b.cycles ||
                (p.cycles == b.cycles &&
                 (p.codeGrowth < b.codeGrowth ||
                  (p.codeGrowth == b.codeGrowth && p.label < b.label))))
                best = i;
        }
        return best;
    };

    // Greedy refinement: step the incumbent's knobs, re-evaluate, stop
    // when a round adds nothing or the budget runs dry.
    for (int round = 0; round < opts.greedyRounds; ++round) {
        const TunerPoint incumbent = report.points[best_index()];
        std::vector<Candidate> neighbors;
        auto step = [&](size_t max_insts, size_t headroom) {
            TargetModel variant = incumbent.target;
            variant.maxInsts = max_insts;
            variant.spillHeadroom = headroom;
            if (variant.validate().empty())
                admit(incumbent.policy, variant, neighbors,
                      /*count_drop=*/false);
        };
        const TargetModel &t = incumbent.target;
        step(t.maxInsts / 2, t.spillHeadroom);
        step(t.maxInsts * 2, t.spillHeadroom);
        step(t.maxInsts, t.spillHeadroom + 2);
        if (t.spillHeadroom >= 2)
            step(t.maxInsts, t.spillHeadroom - 2);
        if (neighbors.empty())
            break;
        evaluate(neighbors);
    }

    report.best = best_index();

    for (size_t i = 0; i < report.points.size(); ++i) {
        bool dominated = false;
        for (size_t j = 0; j < report.points.size() && !dominated; ++j)
            dominated = dominates(report.points[j], report.points[i]);
        report.points[i].pareto = !dominated;
        if (!dominated)
            report.paretoFront.push_back(i);
    }
    return report;
}

std::string
TunerReport::toJson(const std::string &workload) const
{
    std::string out = "{";
    if (!workload.empty())
        out += concat("\"workload\":\"", jsonEscape(workload), "\",");
    out += concat("\"baseline_insts\":", baselineInsts,
                  ",\"truncated\":", truncated, ",\"points\":[");
    for (size_t i = 0; i < points.size(); ++i) {
        const TunerPoint &p = points[i];
        if (i)
            out += ",";
        out += concat(
            "{\"label\":\"", jsonEscape(p.label), "\",\"policy\":\"",
            policyKindName(p.policy), "\",\"target\":{\"name\":\"",
            jsonEscape(p.target.name),
            "\",\"max_insts\":", p.target.maxInsts,
            ",\"max_mem_ops\":", p.target.maxMemOps,
            ",\"lsq_depth\":", p.target.lsqDepth,
            ",\"banks\":", p.target.numRegBanks,
            ",\"spill_headroom\":", p.target.spillHeadroom,
            "},\"blocks\":", p.blocks, ",\"insts\":", p.insts,
            ",\"code_growth\":", fmtDouble(p.codeGrowth),
            ",\"cycles\":", p.cycles,
            ",\"pareto\":", p.pareto ? "true" : "false", "}");
    }
    out += "],\"pareto_front\":[";
    for (size_t i = 0; i < paretoFront.size(); ++i)
        out += concat(i ? "," : "", paretoFront[i]);
    out += concat("],\"best\":", best, ",\"best_label\":\"",
                  jsonEscape(points.empty() ? "" : points[best].label),
                  "\"}");
    return out;
}

} // namespace chf
