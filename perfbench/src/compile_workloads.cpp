/**
 * @file
 * The in-process compile workloads: synth64, gen_batch and kernels.
 *
 * Each run sets up (input generation plus one untimed warm-up pass)
 * several times, builds a reference per unit (the simulator oracle of
 * the prepared program and the warm-up assembly), and then either
 * loops the workload untraced for the run time (end-to-end metrics) or
 * replays every unit layer by layer (per-layer metrics).
 */

#include <algorithm>
#include <memory>
#include <random>

#include "backend/asm_writer.h"
#include "pipeline/session.h"
#include "replay.h"
#include "sim/timing_sim.h"
#include "workloads/generator.h"
#include "workloads/workloads.h"

namespace perfbench {

namespace {

constexpr uint64_t kGenUnits = 200;
constexpr int kGenThreads = 4;
constexpr size_t kMinSamples = 100;

/**
 * synth64 times the best of this many back-to-back compiles as one
 * sample. The shared host has slow stretches of about a second in which
 * a compile takes about 1.5 times as long, and how often they come
 * drifts over minutes; the median of single compiles follows that drift,
 * the median of best-of-three samples much less (README, "Run-to-run
 * spread").
 */
constexpr int kBestOf = 3;

/** Add @p unit to @p session the way a user does: source in. */
size_t
addUnit(chf::Session &session, const UnitSpec &unit)
{
    if (!unit.kernel)
        return session.addSource(unit.source, unit.name, unit.args);
    chf::Program program = frontendUnit(unit);
    chf::ProfileData profile = chf::prepareProgram(program);
    return session.addProgram(std::move(program), std::move(profile),
                              unit.name);
}

/** One unit compiled source to assembly by a one-thread Session. */
struct Compiled
{
    double us = 0.0;    ///< source in to assembly out, wall time
    double cpuUs = 0.0; ///< the same span in thread CPU time
    double addUs = 0.0;
    double compileUs = 0.0;
    double busyUs = 0.0; ///< the unit's usCompileTotal
    std::string asmText;
    chf::Program program;
    bool degraded = false;
};

Compiled
compileOne(const UnitSpec &unit)
{
    Compiled c;
    const double cpu_start = threadCpuUs();
    Clock::time_point start = Clock::now();
    chf::Session session(
        chf::SessionOptions().withPipeline(unit.pipeline));
    size_t idx = addUnit(session, unit);
    c.addUs = usSince(start);
    Clock::time_point compile_start = Clock::now();
    chf::SessionResult result = session.compile(1);
    c.compileUs = usSince(compile_start);
    c.asmText = chf::writeFunctionAsm(session.program(idx).fn);
    c.us = usSince(start);
    c.cpuUs = threadCpuUs() - cpu_start;
    c.busyUs = static_cast<double>(
        result.functions[idx].stats.get("usCompileTotal"));
    c.degraded = result.functions[idx].degraded();
    c.program = std::move(session.program(idx));
    return c;
}

/**
 * A gen_batch pass: one Session, addSource for each unit in @p order,
 * compile(4), then the assembly of each. Session unit k is
 * units[order[k]].
 */
struct Batch
{
    std::vector<size_t> order;
    std::unique_ptr<chf::Session> session;
    chf::SessionResult result;
    std::vector<std::string> asmText;
    std::vector<double> unitUs; ///< addSource + usCompileTotal + asm
    double wallUs = 0.0;
    double addUs = 0.0;
    double compileUs = 0.0;
};

Batch
compileBatch(const std::vector<UnitSpec> &units,
             const std::vector<size_t> &order)
{
    Batch b;
    b.order = order;
    b.session = std::make_unique<chf::Session>(
        chf::SessionOptions().withThreads(kGenThreads));
    std::vector<double> add_us(units.size()), asm_us(units.size());
    Clock::time_point start = Clock::now();
    for (size_t i = 0; i < units.size(); ++i) {
        Clock::time_point t = Clock::now();
        addUnit(*b.session, units[order[i]]);
        add_us[i] = usSince(t);
    }
    b.addUs = usSince(start);
    Clock::time_point compile_start = Clock::now();
    b.result = b.session->compile(kGenThreads);
    b.compileUs = usSince(compile_start);
    for (size_t i = 0; i < units.size(); ++i) {
        Clock::time_point t = Clock::now();
        b.asmText.push_back(
            chf::writeFunctionAsm(b.session->program(i).fn));
        asm_us[i] = usSince(t);
    }
    b.wallUs = usSince(start);
    for (size_t i = 0; i < units.size(); ++i) {
        b.unitUs.push_back(
            add_us[i] +
            static_cast<double>(
                b.result.functions[i].stats.get("usCompileTotal")) +
            asm_us[i]);
    }
    return b;
}

/**
 * References from the warm-up compile of each unit: the oracle of an
 * independently prepared copy, the warm-up assembly (itself checked
 * against the oracle), and, for formed units, the code quality.
 */
std::vector<Reference>
makeReferences(const std::vector<UnitSpec> &units,
               const std::vector<std::string> &asm_texts,
               const std::vector<const chf::Program *> &programs,
               Quality &quality, RunResult &out)
{
    SpanRecorder off(false);
    std::vector<Reference> refs(units.size());
    for (size_t i = 0; i < units.size(); ++i) {
        chf::Program prepared = frontendUnit(units[i]);
        chf::ProfileData profile =
            chf::prepareProgram(prepared, units[i].args);
        refs[i].oracle = runOracle(prepared);
        refs[i].asmText = asm_texts[i];
        refs[i].insts = programs[i]->fn.totalInsts();
        checkUnit(refs[i], units[i].name, asm_texts[i], *programs[i],
                  false, off, 0, out);
        if (units[i].pipeline != chf::Pipeline::BB)
            quality.add(prepared, profile, *programs[i]);
    }
    return refs;
}

/** Static instructions of every formed unit. */
double
codeSize(const std::vector<UnitSpec> &units,
         const std::vector<Reference> &refs)
{
    double insts = 0.0;
    for (size_t i = 0; i < units.size(); ++i)
        if (units[i].pipeline != chf::Pipeline::BB)
            insts += static_cast<double>(refs[i].insts);
    return insts;
}

/** Session metrics from one-unit compiles (synth64, kernels). */
void
addOneUnitSessionMetrics(const std::vector<Compiled> &compiled,
                         RunResult &out)
{
    double add = 0, compile = 0, busy = 0;
    for (const Compiled &c : compiled) {
        add += c.addUs;
        compile += c.compileUs;
        busy += c.busyUs;
    }
    const double n = static_cast<double>(compiled.size());
    addSessionMetrics(out, add / n, compile / n, busy / compile, 0.0);
}

std::vector<const chf::Program *>
programsOf(const std::vector<Compiled> &compiled)
{
    std::vector<const chf::Program *> out;
    for (const Compiled &c : compiled)
        out.push_back(&c.program);
    return out;
}

std::vector<std::string>
asmOf(const std::vector<Compiled> &compiled)
{
    std::vector<std::string> out;
    for (const Compiled &c : compiled)
        out.push_back(c.asmText);
    return out;
}

} // namespace

void
runSynth64(const Options &opts, RunResult &out)
{
    std::vector<double> setup_s;
    HostSpeed setup_speed;
    std::vector<UnitSpec> units;
    std::vector<Compiled> warm;
    for (int k = 0; k < kSetups; ++k) {
        Clock::time_point start = Clock::now();
        chf::Workload w = chf::synthFormationWorkload(64);
        units = {UnitSpec{w.name, w.source, w.args}};
        warm.clear();
        warm.push_back(compileOne(units[0]));
        setup_s.push_back(usSince(start) / 1e6 * setup_speed.next());
    }
    Quality quality;
    std::vector<Reference> refs = makeReferences(
        units, asmOf(warm), programsOf(warm), quality, out);
    noteAsmDigest(refs, out);

    if (opts.trace) {
        addOneUnitSessionMetrics(warm, out);
        addServerMetrics(out, 0, 0, 0, 0, 0);
        traceUnits(opts, units, refs, false, opts.seconds, out);
        return;
    }

    // A sample is the best of kBestOf back-to-back compiles in thread CPU
    // time, scaled to the reference host speed (HostSpeed); the gated
    // latency is the median sample, and units_per_s its inverse. Every
    // compile is checked, and the compile_ms_* figures are over all of
    // them, unscaled. Run past the run time if needed so their p90 has
    // ten compiles beyond it.
    SpanRecorder off(false);
    HostSpeed speed;
    std::vector<double> sample_ms, best_ms, unit_ms, wall_ms;
    Clock::time_point start = Clock::now();
    while (usSince(start) < opts.seconds * 1e6 ||
           unit_ms.size() < kMinSamples) {
        double best = 0.0;
        for (int k = 0; k < kBestOf; ++k) {
            Compiled c = compileOne(units[0]);
            unit_ms.push_back(c.cpuUs / 1e3);
            wall_ms.push_back(c.us / 1e3);
            best = k == 0 ? unit_ms.back() : std::min(best, unit_ms.back());
            checkUnit(refs[0], units[0].name, c.asmText, c.program,
                      c.degraded, off, 0, out);
        }
        best_ms.push_back(best);
        sample_ms.push_back(best * speed.next());
    }
    const double p50 = median(sample_ms);
    addEndToEnd(out, setup_s, p50, 1e3 / p50, codeSize(units, refs),
                peakRssMb(), quality);
    note(out, "compile_ms_p50", quantile(unit_ms, 0.5), "ms");
    note(out, "compile_ms_p90", quantile(unit_ms, 0.9), "ms");
    note(out, "compile_wall_ms_p50", quantile(wall_ms, 0.5), "ms");
    note(out, "best_ms_p50", median(best_ms), "ms");
    note(out, "calibration_us_p50", speed.medianUs(), "us");
    out.notes.push_back("samples: " + std::to_string(unit_ms.size()) +
                        " compiles, " + std::to_string(best_ms.size()) +
                        " best-of-" + std::to_string(kBestOf) + " samples");
}

void
runGenBatch(const Options &opts, RunResult &out)
{
    chf::GeneratorShape shape;
    chf::namedShape("bench", &shape);

    // The programs are the generator's seeds 1..200; the workload seed
    // draws the order each batch adds them in, so load balance over the
    // four workers is sampled afresh every batch.
    std::mt19937_64 rng(opts.seed);
    std::vector<size_t> order(kGenUnits);
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    auto shuffled = [&] {
        std::shuffle(order.begin(), order.end(), rng);
        return order;
    };

    std::vector<double> setup_s;
    HostSpeed setup_speed;
    std::vector<UnitSpec> units;
    Batch warm;
    for (int k = 0; k < kSetups; ++k) {
        Clock::time_point start = Clock::now();
        units.clear();
        for (uint64_t gen_seed = 1; gen_seed <= kGenUnits; ++gen_seed) {
            chf::GeneratedProgram g = chf::generateTinyC(gen_seed, shape);
            units.push_back(UnitSpec{"gen_" + std::to_string(g.seed),
                                     g.source, g.args});
        }
        warm = compileBatch(units, shuffled());
        setup_s.push_back(usSince(start) / 1e6 * setup_speed.next());
    }
    std::vector<const chf::Program *> warm_programs(units.size());
    std::vector<std::string> warm_asm(units.size());
    for (size_t k = 0; k < units.size(); ++k) {
        warm_programs[warm.order[k]] = &warm.session->program(k);
        warm_asm[warm.order[k]] = warm.asmText[k];
    }
    Quality quality;
    std::vector<Reference> refs =
        makeReferences(units, warm_asm, warm_programs, quality, out);
    noteAsmDigest(refs, out);

    SpanRecorder off(false);
    auto check_batch = [&](const Batch &b) {
        for (size_t k = 0; k < units.size(); ++k) {
            size_t i = b.order[k];
            checkUnit(refs[i], units[i].name, b.asmText[k],
                      b.session->program(k),
                      b.result.functions[k].degraded(), off, 0, out);
        }
    };

    if (opts.trace) {
        // Session-layer figures from untraced batches, per unit.
        double add = 0, compile = 0, busy = 0, wasted = 0, spec = 0;
        const int passes = 3;
        for (int p = 0; p < passes; ++p) {
            Batch b = compileBatch(units, shuffled());
            check_batch(b);
            add += b.addUs;
            compile += b.compileUs;
            for (const chf::FunctionResult &fr : b.result.functions)
                busy += static_cast<double>(fr.stats.get("usCompileTotal"));
            wasted += static_cast<double>(
                b.result.totals.get("trialsSpecWasted"));
            spec += static_cast<double>(
                b.result.totals.get("trialsSpeculated"));
        }
        const double n = static_cast<double>(passes * units.size());
        addSessionMetrics(out, add / n, compile / n,
                          busy / (kGenThreads * compile),
                          spec > 0 ? wasted / spec : 0.0);
        addServerMetrics(out, 0, 0, 0, 0, 0);
        traceUnits(opts, units, refs, false, opts.seconds, out);
        return;
    }

    // The gated figures are scaled to the reference host speed batch by
    // batch (HostSpeed); the functions_per_s and unit_ms_p90 figures are
    // not.
    HostSpeed speed;
    std::vector<double> unit_ms, fps, scaled_ms, scaled_fps;
    Clock::time_point start = Clock::now();
    while (usSince(start) < opts.seconds * 1e6) {
        Batch b = compileBatch(units, shuffled());
        const double scale = speed.next();
        fps.push_back(static_cast<double>(units.size()) /
                      (b.wallUs / 1e6));
        scaled_fps.push_back(fps.back() / scale);
        for (double us : b.unitUs) {
            unit_ms.push_back(us / 1e3);
            scaled_ms.push_back(us / 1e3 * scale);
        }
        check_batch(b);
    }
    addEndToEnd(out, setup_s, median(scaled_ms), median(scaled_fps),
                codeSize(units, refs), peakRssMb(), quality);
    note(out, "unit_ms_p90", quantile(unit_ms, 0.9), "ms");
    note(out, "functions_per_s", median(fps), "1/s");
    note(out, "calibration_us_p50", speed.medianUs(), "us");
    out.notes.push_back("samples: " + std::to_string(unit_ms.size()) +
                        " unit latencies");
    out.notes.push_back("batches: " + std::to_string(fps.size()) + " of " +
                        std::to_string(units.size()) + " units");
}

void
runKernels(const Options &opts, RunResult &out)
{
    std::vector<double> setup_s;
    HostSpeed setup_speed;
    std::vector<UnitSpec> units;
    std::vector<Compiled> warm;
    for (int k = 0; k < kSetups; ++k) {
        Clock::time_point start = Clock::now();
        units.clear();
        warm.clear();
        for (const chf::Workload &w : chf::microbenchmarks()) {
            for (chf::Pipeline p :
                 {chf::Pipeline::BB, chf::Pipeline::IUPO_fused}) {
                units.push_back(UnitSpec{
                    w.name + "/" + chf::pipelineName(p), "", {}, &w, p});
                warm.push_back(compileOne(units.back()));
                chf::runTiming(warm.back().program);
            }
        }
        setup_s.push_back(usSince(start) / 1e6 * setup_speed.next());
    }
    Quality quality;
    std::vector<Reference> refs = makeReferences(
        units, asmOf(warm), programsOf(warm), quality, out);
    noteAsmDigest(refs, out);

    if (opts.trace) {
        addOneUnitSessionMetrics(warm, out);
        addServerMetrics(out, 0, 0, 0, 0, 0);
        traceUnits(opts, units, refs, true, opts.seconds, out);
        return;
    }

    // One suite evaluation: compile all 24 under both pipelines, one
    // thread, and run each result on the timing simulator. Times are
    // thread CPU time; the wall time of a suite is noted alongside. The
    // gated figures are scaled to the reference host speed pass by pass
    // (HostSpeed); the compile_ms_* and suite_eval_* figures are not.
    SpanRecorder off(false);
    HostSpeed speed;
    std::vector<double> unit_ms, suite_s, suite_wall_s, scaled_ms,
        scaled_ups;
    Clock::time_point start = Clock::now();
    while (usSince(start) < opts.seconds * 1e6) {
        std::vector<Compiled> pass;
        const double cpu_start = threadCpuUs();
        Clock::time_point pass_start = Clock::now();
        for (const UnitSpec &unit : units) {
            pass.push_back(compileOne(unit));
            chf::runTiming(pass.back().program);
        }
        suite_s.push_back((threadCpuUs() - cpu_start) / 1e6);
        suite_wall_s.push_back(usSince(pass_start) / 1e6);
        const double scale = speed.next();
        scaled_ups.push_back(static_cast<double>(units.size()) /
                             (suite_s.back() * scale));
        for (size_t i = 0; i < units.size(); ++i) {
            if (units[i].pipeline != chf::Pipeline::BB) {
                unit_ms.push_back(pass[i].cpuUs / 1e3);
                scaled_ms.push_back(unit_ms.back() * scale);
            }
            checkUnit(refs[i], units[i].name, pass[i].asmText,
                      pass[i].program, pass[i].degraded, off, 0, out);
        }
    }
    addEndToEnd(out, setup_s, median(scaled_ms), median(scaled_ups),
                codeSize(units, refs), peakRssMb(), quality);
    note(out, "compile_ms_p50", quantile(unit_ms, 0.5), "ms");
    note(out, "compile_ms_p90", quantile(unit_ms, 0.9), "ms");
    note(out, "suite_eval_s", median(suite_s), "s");
    note(out, "suite_eval_wall_s", median(suite_wall_s), "s");
    note(out, "calibration_us_p50", speed.medianUs(), "us");
    out.notes.push_back("samples: " + std::to_string(unit_ms.size()) +
                        " (IUPO) compiles over " +
                        std::to_string(suite_s.size()) + " passes");
    note(out, "speedup_vs_bb", geomean(quality.speedups), "ratio");
    note(out, "blocks_ratio_vs_bb", geomean(quality.blockRatios), "ratio");
}

} // namespace perfbench
