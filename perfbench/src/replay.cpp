#include "replay.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <map>

#include "backend/asm_writer.h"
#include "backend/fanout.h"
#include "backend/regalloc.h"
#include "backend/scheduler.h"
#include "hyperblock/convergent.h"
#include "hyperblock/policy.h"
#include "ir/verifier.h"
#include "pipeline/server.h"
#include "pipeline/session.h"
#include "sim/timing_sim.h"
#include "transform/normalize_outputs.h"
#include "transform/optimize.h"
#include "transform/reverse_if_convert.h"

namespace perfbench {

SpanRecorder::Scope::Scope(SpanRecorder &rec, const char *name,
                           uint32_t unit, Kind kind)
    : rec(rec)
{
    if (!rec.on)
        return;
    span.name = name;
    span.unit = unit;
    span.kind = kind;
    start = Clock::now();
}

SpanRecorder::Scope::~Scope()
{
    if (!rec.on)
        return;
    Clock::time_point end = Clock::now();
    span.startUs =
        std::chrono::duration<double, std::micro>(start - rec.origin)
            .count();
    span.durUs =
        std::chrono::duration<double, std::micro>(end - start).count();
    rec.recorded.push_back(std::move(span));
}

void
SpanRecorder::Scope::arg(const std::string &key, double value)
{
    if (rec.on)
        span.args.emplace_back(key, value);
}

bool
SpanRecorder::writeChromeTrace(const std::string &path,
                               size_t max_events) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    static const char *const kCategory[] = {"unit", "layer", "check"};
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    size_t n = std::min(max_events, recorded.size());
    for (size_t i = 0; i < n; ++i) {
        const Span &s = recorded[i];
        out << (i ? ",\n" : "") << "{\"name\":" << chf::jsonQuote(s.name)
            << ",\"cat\":\"" << kCategory[static_cast<int>(s.kind)]
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << fmt(s.startUs) << ",\"dur\":" << fmt(s.durUs)
            << ",\"args\":{\"unit\":" << s.unit;
        if (s.kind == Kind::Layer)
            out << ",\"parent\":\"unit\"";
        for (const auto &[key, value] : s.args)
            out << "," << chf::jsonQuote(key) << ":" << fmt(value);
        out << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

namespace {

/** Formation time the engine's own counters attribute to a phase. */
double
attributedFormationUs(const chf::StatSet &stats)
{
    return static_cast<double>(
        stats.get("usMergeCombine") + stats.get("usMergeOptimize") +
        stats.get("usMergeLegal") + stats.get("usMergeLiveness") +
        stats.get("usAnalysisDom") + stats.get("usAnalysisLoops"));
}


/** Per-unit formation counters accumulated over a traced run. */
struct FormationTotals
{
    double units = 0;
    chf::StatSet sum;

    void
    add(const chf::StatSet &stats)
    {
        units += 1;
        sum.merge(stats);
    }

    /** Mean of counter @p key per unit. */
    double
    mean(const std::string &key) const
    {
        return units > 0 ? static_cast<double>(sum.get(key)) / units : 0.0;
    }
};

/**
 * Per-layer means over every recorded unit span: layer name -> mean
 * microseconds per unit, plus "replay.gap" (unit wall minus the sum of
 * its layer spans).
 */
std::map<std::string, double>
layerMeans(const SpanRecorder &rec)
{
    std::map<std::string, double> sums;
    double units = 0.0;
    for (const SpanRecorder::Span &s : rec.spans()) {
        if (s.kind != SpanRecorder::Kind::Unit) {
            sums[s.name] += s.durUs;
            continue;
        }
        units += 1.0;
        for (const auto &[key, value] : s.args)
            if (key == "gap_us")
                sums["replay.gap"] += value;
    }
    if (units > 0)
        for (auto &entry : sums)
            entry.second /= units;
    return sums;
}


/**
 * Add the formation, analysis and backend layer metrics derived from
 * the recorder's spans and @p totals to @p out (names as BENCHMARK.json
 * lists them).
 */
void
addCompileLayerMetrics(const SpanRecorder &rec,
                       const FormationTotals &totals, double spills,
                       double fanout_moves, double split_blocks,
                       double asm_bytes, RunResult &out)
{
    std::map<std::string, double> layer = layerMeans(rec);
    auto us = [&](const char *span) {
        auto it = layer.find(span);
        return it == layer.end() ? 0.0 : it->second;
    };
    auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };

    const double trials = totals.mean("trialsRun") +
                          totals.mean("trialsMemoHit") +
                          totals.mean("trialsPrescreened");
    const double attributed =
        totals.mean("usMergeCombine") + totals.mean("usMergeOptimize") +
        totals.mean("usMergeLegal") + totals.mean("usMergeLiveness") +
        totals.mean("usAnalysisDom") + totals.mean("usAnalysisLoops");

    out.add("frontend.us", us("frontend"), "us");
    out.add("prepare.us", us("prepare"), "us");
    out.add("formation.us", us("formation"), "us");
    out.add("formation.trials", trials, "count");
    out.add("formation.merge_ratio",
            ratio(totals.mean("blocksMerged"), trials), "ratio");
    out.add("formation.memo_hit_ratio",
            ratio(totals.mean("trialsMemoHit"), trials), "ratio");
    out.add("formation.combine_us", totals.mean("usMergeCombine"), "us");
    out.add("formation.trial_opt_us", totals.mean("usMergeOptimize"),
            "us");
    out.add("formation.legal_us", totals.mean("usMergeLegal"), "us");
    out.add("formation.liveness_us", totals.mean("usMergeLiveness"),
            "us");
    out.add("formation.unattributed_us", us("formation") - attributed,
            "us");
    out.add("formation.merges", totals.mean("blocksMerged"), "count");
    out.add("formation.tail_dups", totals.mean("tailDuplicated"),
            "count");
    out.add("formation.unrolls", totals.mean("unrolledIterations"),
            "count");
    out.add("formation.peels", totals.mean("peeledIterations"), "count");
    out.add("analysis.liveness_updates",
            totals.mean("analysisLivenessUpdates"), "count");
    out.add("analysis.liveness_builds",
            totals.mean("analysisLivenessBuilds"), "count");
    out.add("analysis.dom_us", totals.mean("usAnalysisDom"), "us");
    out.add("analysis.loops_us", totals.mean("usAnalysisLoops"), "us");
    out.add("scalar_opt.us", us("scalar_opt"), "us");
    out.add("verify.us", us("verify"), "us");
    out.add("regalloc.us", us("regalloc"), "us");
    out.add("regalloc.spills", spills, "count");
    out.add("fanout.us", us("fanout"), "us");
    out.add("fanout.moves", fanout_moves, "count");
    out.add("split.us", us("split"), "us");
    out.add("split.blocks", split_blocks, "count");
    out.add("schedule.us", us("schedule"), "us");
    out.add("asm.us", us("asm"), "us");
    out.add("asm.bytes", asm_bytes, "bytes");
    out.add("sim.functional.us", us("sim.functional"), "us");
    out.add("sim.timing.us", us("sim.timing"), "us");
    out.add("replay.gap_us", us("replay.gap"), "us");
}

} // namespace

chf::Program
frontendUnit(const UnitSpec &unit)
{
    if (unit.kernel)
        return chf::buildWorkload(*unit.kernel);
    chf::Program program = chf::Session::frontend(unit.source);
    if (!unit.args.empty())
        program.defaultArgs = unit.args;
    return program;
}

ReplayOutput
replayUnit(const UnitSpec &unit, uint32_t id, SpanRecorder &rec)
{
    using namespace chf;
    ReplayOutput out;
    Clock::time_point unit_start = Clock::now();
    const size_t first_span = rec.spans().size();
    SpanRecorder::Scope unit_span(rec, unit.name.c_str(), id,
                                  SpanRecorder::Kind::Unit);

    Program program;
    {
        SpanRecorder::Scope s(rec, "frontend", id);
        program = frontendUnit(unit);
    }

    DiagnosticEngine diags;
    ProfileData profile;
    {
        SpanRecorder::Scope s(rec, "prepare", id);
        profile = prepareProgram(program, unit.args, true,
                                 unit.guarded ? &diags : nullptr,
                                 unit.guarded);
    }

    // MergeOptions exactly as detail::compileUnit derives them for the
    // default target and the breadth-first policy.
    Function &fn = program.fn;
    const TargetModel target;
    if (unit.pipeline != Pipeline::BB) {
        {
            SpanRecorder::Scope s(rec, "formation", id);
            std::unique_ptr<Policy> policy = makeBreadthFirstPolicy();
            FormationOptions formation;
            formation.merge.target = target;
            formation.merge.sizeHeadroom = target.spillHeadroom;
            formation.merge.enableHeadDuplication =
                unit.pipeline == Pipeline::IUP_O ||
                unit.pipeline == Pipeline::IUPO_fused;
            formation.merge.optimizeDuringMerge =
                unit.pipeline == Pipeline::IUPO_fused;
            out.formation = formHyperblocks(fn, *policy, formation).stats;
        }
        SpanRecorder::Scope s(rec, "scalar_opt", id);
        optimizeFunction(fn);
    }
    if (!unit.guarded) {
        SpanRecorder::Scope s(rec, "verify", id);
        verifyOrDie(fn, "hyperblock formation");
    }
    {
        SpanRecorder::Scope s(rec, "regalloc", id);
        normalizeOutputsFunction(fn);
        optimizeFunction(fn);
        RegAllocOptions ra;
        ra.target = target;
        ra.numPhysRegs = target.numPhysRegs;
        out.spills = allocateRegisters(program, ra).spilledValues;
    }
    {
        SpanRecorder::Scope s(rec, "fanout", id);
        out.fanoutMoves = insertFanoutFunction(fn);
    }
    {
        SpanRecorder::Scope s(rec, "split", id);
        out.splitBlocks = splitOversizedBlocks(fn, target);
    }
    if (unit.guarded) {
        // The guarded backend also places every block; the result only
        // feeds the timing model, so the assembly does not change.
        SpanRecorder::Scope s(rec, "schedule", id);
        scheduleFunction(fn);
    } else {
        SpanRecorder::Scope s(rec, "verify", id);
        verifyOrDie(fn, "backend");
    }
    {
        SpanRecorder::Scope s(rec, "asm", id);
        out.asmText = writeFunctionAsm(fn);
    }
    out.compiled = std::move(program);

    // Layers must visibly sum to the unit's wall time: report the gap,
    // and the part of formation its own counters do not attribute.
    double layers_us = 0.0;
    double formation_us = 0.0;
    for (size_t i = first_span; i < rec.spans().size(); ++i) {
        layers_us += rec.spans()[i].durUs;
        if (rec.spans()[i].name == "formation")
            formation_us = rec.spans()[i].durUs;
    }
    out.wallUs = usSince(unit_start);
    unit_span.arg("gap_us", out.wallUs - layers_us);
    unit_span.arg("formation_unattributed_us",
                  formation_us - attributedFormationUs(out.formation));
    return out;
}

void
checkUnit(const Reference &ref, const std::string &name,
          const std::string &asm_text, const chf::Program &compiled,
          bool degraded, SpanRecorder &rec, uint32_t id, RunResult &out)
{
    ++out.attempted;
    if (degraded) {
        out.fail(name + ": compile degraded");
        return;
    }
    if (asm_text != ref.asmText) {
        out.fail(name + ": assembly differs from the reference compile");
        return;
    }
    std::string why;
    {
        SpanRecorder::Scope s(rec, "sim.functional", id,
                              SpanRecorder::Kind::Check);
        why = checkAgainstOracle(ref.oracle, compiled);
    }
    if (!why.empty())
        out.fail(name + ": " + why);
}

void
noteAsmDigest(const std::vector<Reference> &refs, RunResult &out)
{
    std::string all;
    for (const Reference &ref : refs)
        all += ref.asmText;
    out.notes.push_back("asm_digest " + digestHex(all) + " over " +
                        std::to_string(refs.size()) + " units");
}

void
note(RunResult &out, const std::string &name, double value,
     const std::string &unit)
{
    out.notes.push_back("metric " + name + " = " + fmt(value) + " " +
                        unit);
}

namespace {

constexpr size_t kMaxTraceEvents = 200000;

/** What a traced run accumulates over its recorded replays. */
struct TraceTotals
{
    SpanRecorder rec{true};
    FormationTotals formation;
    double units = 0, spills = 0, moves = 0, splits = 0, bytes = 0;
    double wallUs = 0;        ///< recorded replays
    double onUs = 0, offUs = 0; ///< overhead pairs

    void
    add(const ReplayOutput &r)
    {
        units += 1;
        formation.add(r.formation);
        spills += static_cast<double>(r.spills);
        moves += static_cast<double>(r.fanoutMoves);
        splits += static_cast<double>(r.splitBlocks);
        bytes += static_cast<double>(r.asmText.size());
        wallUs += r.wallUs;
    }

    /** Replay @p unit with and without the recorder, alternating which
     *  goes first; the recorded one (into @p rec_on) is returned. */
    ReplayOutput
    pair(const UnitSpec &unit, uint32_t id, SpanRecorder &rec_on)
    {
        SpanRecorder off(false);
        if (id % 2 == 1)
            offUs += replayUnit(unit, id, off).wallUs;
        ReplayOutput r = replayUnit(unit, id, rec_on);
        if (id % 2 == 0)
            offUs += replayUnit(unit, id, off).wallUs;
        onUs += r.wallUs;
        return r;
    }

    /** Add the per-layer metrics and layer shares, write the trace. */
    void
    finish(const Options &opts, RunResult &out) const
    {
        addCompileLayerMetrics(rec, formation, spills / units,
                               moves / units, splits / units,
                               bytes / units, out);
        out.add("trace.overhead_pct", 100.0 * (onUs / offUs - 1.0), "%");

        // Layer shares of the mean recorded unit's wall time (the
        // simulator checks run after the unit span).
        for (const auto &[layer, us] : layerMeans(rec))
            if (layer.rfind("sim.", 0) != 0)
                out.notes.push_back("layer share " + layer + " " +
                                    fmt(100.0 * us / (wallUs / units)) +
                                    " %");
        std::string path = opts.outDir + "/trace_" + opts.workload + ".json";
        if (!rec.writeChromeTrace(path, kMaxTraceEvents))
            out.fail("cannot write " + path);
        else
            out.notes.push_back(
                "trace " + path + " (" +
                std::to_string(
                    std::min(rec.spans().size(), kMaxTraceEvents)) +
                " events)");
    }
};

} // namespace

void
traceUnits(const Options &opts, const std::vector<UnitSpec> &units,
           const std::vector<Reference> &refs, bool timing_sim,
           double seconds, RunResult &out)
{
    TraceTotals t;
    uint32_t id = 0;
    Clock::time_point start = Clock::now();
    do {
        for (size_t i = 0; i < units.size(); ++i, ++id) {
            ReplayOutput r = t.pair(units[i], id, t.rec);
            checkUnit(refs[i], units[i].name + " (replay)", r.asmText,
                      r.compiled, false, t.rec, id, out);
            if (timing_sim) {
                SpanRecorder::Scope s(t.rec, "sim.timing", id,
                                      SpanRecorder::Kind::Check);
                chf::runTiming(r.compiled);
            }
            t.add(r);
        }
    } while (usSince(start) < seconds * 1e6);
    t.finish(opts, out);
}

void
traceUnitsCold(const Options &opts, const std::vector<UnitSpec> &units,
               const std::function<std::vector<Reference>()> &references,
               double seconds, RunResult &out)
{
    TraceTotals t;
    Clock::time_point start = Clock::now();
    std::vector<ReplayOutput> recorded;
    for (size_t i = 0; i < units.size(); ++i)
        recorded.push_back(replayUnit(units[i], static_cast<uint32_t>(i),
                                      t.rec));
    const std::vector<Reference> refs = references();
    for (size_t i = 0; i < units.size(); ++i) {
        checkUnit(refs[i], units[i].name + " (replay)",
                  recorded[i].asmText, recorded[i].compiled, false, t.rec,
                  static_cast<uint32_t>(i), out);
        t.add(recorded[i]);
    }

    // The recorder's cost, from pairs replayed with the store now warm.
    uint32_t id = 0;
    do {
        for (size_t i = 0; i < units.size(); ++i, ++id) {
            SpanRecorder scratch(true);
            t.pair(units[i], id, scratch);
        }
    } while (usSince(start) < seconds * 1e6);
    t.finish(opts, out);
}

} // namespace perfbench
