/**
 * @file
 * Compiler-pass throughput: how fast are the analyses, the scalar
 * optimizations, formation, and the simulators. Useful for catching
 * algorithmic regressions in the compiler itself.
 *
 * Three modes:
 *
 *  - default: google-benchmark micro suite, then a prepare and
 *    formation wall-time sweep over every speclike workload, then a
 *    parallel-session sweep (an 8-unit synth64 batch at 1/2/4/8 worker
 *    threads) and the generated tier, all written to
 *    BENCH_pass_speed.json for trajectory tracking.
 *  - --json-only: skip the micro suite, emit only the JSON sweeps.
 *  - --smoke <baseline.json>: time prepareProgram, formation and
 *    writeFunctionAsm of the baseline workload, and runFunctional plus
 *    runTiming over the 24 kernels' (IUPO) compiles (median of 5 each),
 *    and the 4-thread batch config, and fail if any regressed more
 *    than 2x against the recorded baseline; then compile synth64 and
 *    synth256 alternately and fail if the ratio of their medians
 *    exceeds the baseline's scaling_256_64_max. Wired into ctest so
 *    compile-time and simulator regressions fail tier-1. Skipped in
 *    unoptimized builds.
 *
 * The parallel and generated sweeps interleave their thread counts
 * across the repeats (one batch per thread count per repeat), so a
 * slow stretch of a shared host lands on every row alike, and report
 * each row's median with its min and max.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/dominators.h"
#include "analysis/liveness.h"
#include "analysis/loops.h"
#include "backend/asm_writer.h"
#include "backend/scheduler.h"
#include "hyperblock/merge.h"
#include "pipeline/session.h"
#include "sim/functional_sim.h"
#include "sim/timing_sim.h"
#include "support/timer.h"
#include "transform/optimize.h"
#include "transform/simplify_cfg.h"
#include "workloads/generator.h"
#include "workloads/workloads.h"

using namespace chf;

namespace {

/** A prepared mid-sized workload reused across iterations. */
const Program &
preparedWorkload()
{
    static Program program = [] {
        Program p = buildWorkload(*findWorkload("dhry"));
        prepareProgram(p);
        return p;
    }();
    return program;
}

/**
 * Compile @p program in place through a single-unit Session and return
 * that unit's result.
 */
FunctionResult
compileOne(Program &program, const SessionOptions &options)
{
    Session session(options);
    ProfileData profile; // frequencies already annotated on branches
    session.addProgramRef(program, profile);
    SessionResult result = session.compile(1);
    return std::move(result.functions[0]);
}

void
BM_Dominators(benchmark::State &state)
{
    const Program &p = preparedWorkload();
    for (auto _ : state) {
        DominatorTree dom(p.fn);
        benchmark::DoNotOptimize(dom.idom(p.fn.entry()));
    }
}
BENCHMARK(BM_Dominators);

void
BM_LoopAnalysis(benchmark::State &state)
{
    const Program &p = preparedWorkload();
    for (auto _ : state) {
        LoopInfo loops(p.fn);
        benchmark::DoNotOptimize(loops.loops().size());
    }
}
BENCHMARK(BM_LoopAnalysis);

void
BM_Liveness(benchmark::State &state)
{
    const Program &p = preparedWorkload();
    for (auto _ : state) {
        Liveness live(p.fn);
        benchmark::DoNotOptimize(live.liveIn(p.fn.entry()).count());
    }
}
BENCHMARK(BM_Liveness);

void
BM_ScalarOptimize(benchmark::State &state)
{
    const Program &p = preparedWorkload();
    for (auto _ : state) {
        state.PauseTiming();
        Program copy = p.clone();
        state.ResumeTiming();
        optimizeFunction(copy.fn);
    }
}
BENCHMARK(BM_ScalarOptimize);

void
runFormation(Program &program)
{
    compileOne(program, SessionOptions()
                            .withPipeline(Pipeline::IUPO_fused)
                            .withBackend(false));
}

void
BM_ConvergentFormation(benchmark::State &state)
{
    const Program &p = preparedWorkload();
    for (auto _ : state) {
        state.PauseTiming();
        Program copy = p.clone();
        state.ResumeTiming();
        runFormation(copy);
    }
}
BENCHMARK(BM_ConvergentFormation);

void
BM_FullPipeline(benchmark::State &state)
{
    const Program &p = preparedWorkload();
    for (auto _ : state) {
        state.PauseTiming();
        Program copy = p.clone();
        state.ResumeTiming();
        compileOne(copy,
                   SessionOptions().withPipeline(Pipeline::IUPO_fused));
    }
}
BENCHMARK(BM_FullPipeline);

void
BM_Scheduler(benchmark::State &state)
{
    Program compiled = preparedWorkload().clone();
    compileOne(compiled,
               SessionOptions().withPipeline(Pipeline::IUPO_fused));
    for (auto _ : state) {
        auto placement = scheduleFunction(compiled.fn);
        benchmark::DoNotOptimize(placement.size());
    }
}
BENCHMARK(BM_Scheduler);

void
BM_FunctionalSimulator(benchmark::State &state)
{
    const Program &p = preparedWorkload();
    for (auto _ : state) {
        FuncSimResult run = runFunctional(p);
        benchmark::DoNotOptimize(run.instsExecuted);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(runFunctional(p).instsExecuted));
}
BENCHMARK(BM_FunctionalSimulator);

void
BM_TimingSimulator(benchmark::State &state)
{
    const Program &p = preparedWorkload();
    for (auto _ : state) {
        TimingResult run = runTiming(p);
        benchmark::DoNotOptimize(run.cycles);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(runTiming(p).instsExecuted));
}
BENCHMARK(BM_TimingSimulator);

// ----- formation wall-time sweep (BENCH_pass_speed.json) -----

struct FormationTiming
{
    std::string name;
    size_t blocks = 0;
    size_t insts = 0;
    int64_t prepareUs = 0;
    int64_t formationUs = 0;
    int64_t merges = 0;

    // Trial-merge breakdown.
    int64_t trialsRun = 0;
    int64_t trialsMemoHit = 0;
    int64_t usMergeCombine = 0;
    int64_t usMergeOptimize = 0;
    int64_t usMergeLegal = 0;

    // Per-pass optimizer breakdown (the usOpt* engine counters).
    int64_t usOptCopyProp = 0;
    int64_t usOptGvn = 0;
    int64_t usOptPredOpt = 0;
    int64_t usOptDce = 0;
    int64_t usOptCoalesce = 0;
};

/** Resolve registry workloads and the synthetic "synthN" names. */
bool
buildNamed(const std::string &name, Program *out)
{
    if (name.rfind("synth", 0) == 0) {
        int regions = std::atoi(name.c_str() + 5);
        if (regions <= 0)
            return false;
        *out = buildWorkload(synthFormationWorkload(regions));
        return true;
    }
    const Workload *w = findWorkload(name);
    if (!w)
        return false;
    *out = buildWorkload(*w);
    return true;
}

/** Timed repeats per measurement: the median of this many runs. */
constexpr int kRepeats = 5;

int64_t
median(std::vector<int64_t> samples)
{
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

/** A row's repeats: their median, min and max. */
struct Spread
{
    int64_t medianUs = 0;
    int64_t minUs = 0;
    int64_t maxUs = 0;
};

Spread
spreadOf(const std::vector<int64_t> &samples)
{
    auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
    return {median(samples), *lo, *hi};
}

/** prepareProgram wall time on copies of @p built, median of @p repeats. */
int64_t
timePrepareUs(const Program &built, int repeats)
{
    std::vector<int64_t> samples;
    for (int r = 0; r < repeats; ++r) {
        Program copy = built.clone();
        Timer timer;
        prepareProgram(copy);
        samples.push_back(timer.elapsedMicros());
    }
    return median(std::move(samples));
}

/** Formation time (the usFormation counter), median of @p repeats. */
int64_t
timeFormationUs(const Program &prepared, int repeats,
                FormationTiming *fill = nullptr)
{
    std::vector<int64_t> samples;
    for (int r = 0; r < repeats; ++r) {
        Program copy = prepared.clone();
        FunctionResult result = compileOne(
            copy,
            SessionOptions()
                .withPipeline(Pipeline::IUPO_fused)
                .withBackend(false));
        samples.push_back(result.stats.get("usFormation"));
        if (fill) {
            fill->merges = result.stats.get("blocksMerged");
            fill->trialsRun = result.stats.get("trialsRun");
            fill->trialsMemoHit = result.stats.get("trialsMemoHit");
            fill->usMergeCombine = result.stats.get("usMergeCombine");
            fill->usMergeOptimize = result.stats.get("usMergeOptimize");
            fill->usMergeLegal = result.stats.get("usMergeLegal");
            fill->usOptCopyProp = result.stats.get("usOptCopyProp");
            fill->usOptGvn = result.stats.get("usOptGvn");
            fill->usOptPredOpt = result.stats.get("usOptPredOpt");
            fill->usOptDce = result.stats.get("usOptDce");
            fill->usOptCoalesce = result.stats.get("usOptCoalesce");
        }
    }
    return median(std::move(samples));
}

/** writeFunctionAsm wall time on @p fn, median of @p repeats. */
int64_t
timeAsmUs(const Function &fn, int repeats)
{
    std::vector<int64_t> samples;
    for (int r = 0; r < repeats; ++r) {
        Timer timer;
        std::string text = writeFunctionAsm(fn);
        samples.push_back(timer.elapsedMicros());
        benchmark::DoNotOptimize(text.data());
    }
    return median(std::move(samples));
}

/** The 24 kernels, prepared and compiled under (IUPO) in one Session. */
std::vector<Program>
compiledKernels()
{
    Session session(SessionOptions().withPipeline(Pipeline::IUPO_fused));
    for (const Workload &w : microbenchmarks()) {
        Program program = buildWorkload(w);
        ProfileData profile = prepareProgram(program);
        session.addProgram(std::move(program), std::move(profile));
    }
    session.compile(1);
    std::vector<Program> out;
    for (size_t unit = 0; unit < session.size(); ++unit)
        out.push_back(session.program(unit).clone());
    return out;
}

/**
 * Wall time of runFunctional plus runTiming over every program of
 * @p programs, median of @p repeats.
 */
int64_t
timeSimulatorsUs(const std::vector<Program> &programs, int repeats)
{
    std::vector<int64_t> samples;
    for (int r = 0; r < repeats; ++r) {
        uint64_t checksum = 0;
        Timer timer;
        for (const Program &program : programs) {
            checksum += runFunctional(program).instsExecuted;
            checksum += runTiming(program).cycles;
        }
        samples.push_back(timer.elapsedMicros());
        benchmark::DoNotOptimize(checksum);
    }
    return median(std::move(samples));
}

/**
 * Wall time of one compile of a clone of @p prepared from formation to
 * assembly text: the Session's formation and back end, then
 * writeFunctionAsm.
 */
int64_t
compileToAsmUs(const Program &prepared)
{
    Program copy = prepared.clone();
    Timer timer;
    compileOne(copy, SessionOptions().withPipeline(Pipeline::IUPO_fused));
    std::string text = writeFunctionAsm(copy.fn);
    int64_t us = timer.elapsedMicros();
    benchmark::DoNotOptimize(text.data());
    return us;
}

/**
 * How compile time scales with function size: the median compile of
 * synth256 over the median compile of synth64 (compileToAsmUs), the
 * two prepared once and compiled alternately @p repeats times each
 * after one warm-up. Both sides run in one process, interleaved, so
 * the host's speed cancels out of the ratio.
 */
double
scalingRatio(int repeats, int64_t *small_us, int64_t *large_us)
{
    Program small = buildWorkload(synthFormationWorkload(64));
    Program large = buildWorkload(synthFormationWorkload(256));
    prepareProgram(small);
    prepareProgram(large);
    compileToAsmUs(small);
    compileToAsmUs(large);
    std::vector<int64_t> small_samples, large_samples;
    for (int r = 0; r < repeats; ++r) {
        small_samples.push_back(compileToAsmUs(small));
        large_samples.push_back(compileToAsmUs(large));
    }
    *small_us = median(std::move(small_samples));
    *large_us = median(std::move(large_samples));
    return static_cast<double>(*large_us) /
           static_cast<double>(std::max<int64_t>(*small_us, 1));
}

std::vector<FormationTiming>
sweepFormation(int repeats)
{
    std::vector<Workload> suite = speclikeBenchmarks();
    suite.push_back(synthFormationWorkload(64));
    std::vector<FormationTiming> out;
    for (const Workload &w : suite) {
        const Program built = buildWorkload(w);
        FormationTiming t;
        t.name = w.name;
        // Untimed warmups so the timed runs do not absorb the
        // workload's cold-start (allocator, page faults).
        timePrepareUs(built, 1);
        t.prepareUs = timePrepareUs(built, repeats);
        Program prepared = built.clone();
        prepareProgram(prepared);
        t.blocks = prepared.fn.numBlocks();
        t.insts = prepared.fn.totalInsts();
        timeFormationUs(prepared, 1);
        t.formationUs = timeFormationUs(prepared, repeats, &t);
        out.push_back(std::move(t));
    }
    return out;
}

const FormationTiming *
largestWorkload(const std::vector<FormationTiming> &sweep)
{
    const FormationTiming *largest = nullptr;
    for (const auto &t : sweep) {
        if (!largest || t.insts > largest->insts)
            largest = &t;
    }
    return largest;
}

// ----- parallel-session sweep -----

/** One thread count's row of the parallel or generated sweep. */
struct ThreadTiming
{
    int threads = 1;
    Spread wall;
};

constexpr int kBatchUnits = 8;
constexpr const char *kBatchWorkload = "synth64";

/**
 * Wall time of compiling a batch of @p units clones of @p prepared
 * through one Session at @p threads workers.
 */
int64_t
batchWallUs(const Program &prepared, int units, int threads)
{
    Session session(SessionOptions()
                        .withPipeline(Pipeline::IUPO_fused)
                        .withBackend(false)
                        .withThreads(threads));
    for (int u = 0; u < units; ++u)
        session.addProgram(prepared.clone(), ProfileData{});
    Timer timer;
    session.compile();
    return timer.elapsedMicros();
}

/**
 * The thread counts a sweep records: @p counts on a machine with at
 * least 4 hardware threads, otherwise 1 alone. On fewer cores a
 * multi-thread batch measures scheduler contention, not compiler
 * speed; recording those rows would seed future comparisons with
 * garbage (mirrors the smoke test's skip rule).
 */
std::vector<int>
threadCounts(const char *sweep, std::vector<int> counts)
{
    if (std::thread::hardware_concurrency() >= 4)
        return counts;
    std::fprintf(stderr,
                 "%s sweep: hardware_concurrency=%u < 4; multi-thread "
                 "rows skipped (timings on an oversubscribed machine "
                 "are not comparable)\n",
                 sweep, std::thread::hardware_concurrency());
    return {1};
}

/**
 * Run @p batch once per thread count in each of @p repeats rounds, so
 * the thread counts interleave, and return each count's spread.
 */
template <typename Batch>
std::vector<Spread>
interleaved(const std::vector<int> &thread_counts, int repeats,
            Batch batch)
{
    std::vector<std::vector<int64_t>> samples(thread_counts.size());
    for (int r = 0; r < repeats; ++r) {
        for (size_t t = 0; t < thread_counts.size(); ++t)
            samples[t].push_back(batch(thread_counts[t]));
    }
    std::vector<Spread> out;
    for (const std::vector<int64_t> &row : samples)
        out.push_back(spreadOf(row));
    return out;
}

std::vector<ThreadTiming>
sweepParallel(int repeats)
{
    Program prepared;
    buildNamed(kBatchWorkload, &prepared);
    prepareProgram(prepared);

    const std::vector<int> thread_counts =
        threadCounts("parallel", {1, 2, 4, 8});
    const std::vector<Spread> walls =
        interleaved(thread_counts, repeats, [&](int threads) {
            return batchWallUs(prepared, kBatchUnits, threads);
        });
    std::vector<ThreadTiming> out;
    for (size_t t = 0; t < thread_counts.size(); ++t)
        out.push_back({thread_counts[t], walls[t]});

    std::fprintf(stderr,
                 "parallel session batch (%d x %s, formation only, "
                 "%d interleaved repeats):\n"
                 "%8s %12s %12s %12s %8s\n",
                 kBatchUnits, kBatchWorkload, repeats, "threads",
                 "median us", "min us", "max us", "speedup");
    for (const ThreadTiming &t : out) {
        double speedup = t.wall.medianUs > 0
                             ? static_cast<double>(out[0].wall.medianUs) /
                                   static_cast<double>(t.wall.medianUs)
                             : 0.0;
        std::fprintf(stderr, "%8d %12lld %12lld %12lld %7.2fx\n",
                     t.threads, static_cast<long long>(t.wall.medianUs),
                     static_cast<long long>(t.wall.minUs),
                     static_cast<long long>(t.wall.maxUs), speedup);
    }
    return out;
}

// ----- generated-tier sweep (functions/sec on generator output) -----

constexpr int kGeneratedCount = 1000;
constexpr const char *kGeneratedShape = "bench";

/**
 * Compiler throughput on the seeded-generator tier: @p kGeneratedCount
 * single-function programs (the "bench" preset, seeds 1..N) through
 * one full-pipeline Session, wall-clocked at 1 and 4 worker threads.
 * Generation, lowering, and profiling happen up front and are not
 * timed — the sweep measures the compiler, not the generator.
 */
std::vector<ThreadTiming>
sweepGenerated(int repeats)
{
    GeneratorShape shape;
    namedShape(kGeneratedShape, &shape);

    std::vector<Program> prepared(kGeneratedCount);
    std::vector<ProfileData> profiles(kGeneratedCount);
    for (int i = 0; i < kGeneratedCount; ++i) {
        prepared[static_cast<size_t>(i)] = buildGenerated(
            generateTinyC(static_cast<uint64_t>(i) + 1, shape));
        profiles[static_cast<size_t>(i)] =
            prepareProgram(prepared[static_cast<size_t>(i)]);
    }

    const std::vector<int> thread_counts =
        threadCounts("generated", {1, 4});
    const std::vector<Spread> walls =
        interleaved(thread_counts, repeats, [&](int threads) {
            Session session(SessionOptions()
                                .withPipeline(Pipeline::IUPO_fused)
                                .withThreads(threads));
            for (int i = 0; i < kGeneratedCount; ++i) {
                session.addProgram(
                    prepared[static_cast<size_t>(i)].clone(),
                    ProfileData(profiles[static_cast<size_t>(i)]));
            }
            Timer timer;
            session.compile();
            return timer.elapsedMicros();
        });
    std::vector<ThreadTiming> out;
    for (size_t t = 0; t < thread_counts.size(); ++t)
        out.push_back({thread_counts[t], walls[t]});

    std::fprintf(stderr,
                 "generated tier (%d x shape:%s, full pipeline, %d "
                 "interleaved repeats):\n"
                 "%8s %12s %12s %12s %14s\n",
                 kGeneratedCount, kGeneratedShape, repeats, "threads",
                 "median us", "min us", "max us", "functions/sec");
    for (const ThreadTiming &t : out) {
        double fps = t.wall.medianUs > 0
                         ? 1e6 * kGeneratedCount /
                               static_cast<double>(t.wall.medianUs)
                         : 0.0;
        std::fprintf(stderr, "%8d %12lld %12lld %12lld %14.0f\n",
                     t.threads, static_cast<long long>(t.wall.medianUs),
                     static_cast<long long>(t.wall.minUs),
                     static_cast<long long>(t.wall.maxUs), fps);
    }
    return out;
}

void
writeJson(const std::string &path,
          const std::vector<FormationTiming> &sweep,
          const std::vector<ThreadTiming> &parallel,
          const std::vector<ThreadTiming> &generated, int repeats)
{
    const unsigned hw = std::thread::hardware_concurrency();
    std::ostringstream os;
    os << "{\n  \"bench\": \"pass_speed\",\n  \"unit\": \"us\",\n"
       << "  \"hardware_concurrency\": " << hw << ",\n"
       << "  \"baseline_hardware_concurrency\": \"multi-thread rows "
          "(parallel batch, generated tier) are only recorded when "
          "hardware_concurrency() >= 4; on fewer cores they measure "
          "scheduler contention, not compiler speed, and must not be "
          "compared against baselines recorded elsewhere\",\n"
       << "  \"multithread_rows_recorded\": "
       << (hw >= 4 ? "true" : "false") << ",\n"
       << "  \"workloads\": [\n";
    for (size_t i = 0; i < sweep.size(); ++i) {
        const auto &t = sweep[i];
        os << "    {\"name\": \"" << t.name << "\", \"blocks\": "
           << t.blocks << ", \"insts\": " << t.insts
           << ", \"merges\": " << t.merges
           << ", \"prepare_us\": " << t.prepareUs
           << ", \"formation_us_cached\": " << t.formationUs
           << ", \"trials_run\": " << t.trialsRun
           << ", \"trials_memo_hit\": " << t.trialsMemoHit
           << ", \"us_merge_combine\": " << t.usMergeCombine
           << ", \"us_merge_optimize\": " << t.usMergeOptimize
           << ", \"us_merge_legal\": " << t.usMergeLegal
           << ", \"us_opt_copyprop\": " << t.usOptCopyProp
           << ", \"us_opt_gvn\": " << t.usOptGvn
           << ", \"us_opt_predopt\": " << t.usOptPredOpt
           << ", \"us_opt_dce\": " << t.usOptDce
           << ", \"us_opt_coalesce\": " << t.usOptCoalesce << "}"
           << (i + 1 < sweep.size() ? "," : "") << "\n";
    }
    // batch_wall_us is the median of the interleaved repeats, and the
    // speedup and functions_per_sec columns come from the medians.
    auto wall = [](const Spread &w) {
        std::ostringstream row;
        row << "\"batch_wall_us\": " << w.medianUs
            << ", \"min_us\": " << w.minUs << ", \"max_us\": " << w.maxUs;
        return row.str();
    };
    os << "  ],\n  \"parallel\": {\"workload\": \"" << kBatchWorkload
       << "\", \"units\": " << kBatchUnits << ", \"repeats\": " << repeats
       << ", \"runs\": [\n";
    for (size_t i = 0; i < parallel.size(); ++i) {
        const auto &t = parallel[i];
        double speedup =
            t.wall.medianUs > 0
                ? static_cast<double>(parallel[0].wall.medianUs) /
                      static_cast<double>(t.wall.medianUs)
                : 0.0;
        os << "    {\"threads\": " << t.threads << ", " << wall(t.wall)
           << ", \"speedup\": " << speedup << "}"
           << (i + 1 < parallel.size() ? "," : "") << "\n";
    }
    os << "  ]},\n  \"generated\": {\"shape\": \"" << kGeneratedShape
       << "\", \"functions\": " << kGeneratedCount
       << ", \"repeats\": " << repeats << ", \"runs\": [\n";
    for (size_t i = 0; i < generated.size(); ++i) {
        const auto &t = generated[i];
        double fps = t.wall.medianUs > 0
                         ? 1e6 * kGeneratedCount /
                               static_cast<double>(t.wall.medianUs)
                         : 0.0;
        os << "    {\"threads\": " << t.threads << ", " << wall(t.wall)
           << ", \"functions_per_sec\": " << fps << "}"
           << (i + 1 < generated.size() ? "," : "") << "\n";
    }
    const TrialMemoStats memo = trialMemoStats();
    os << "  ]},\n  \"memo_store\": {\"hits\": " << memo.hits
       << ", \"misses\": " << memo.misses
       << ", \"evictions\": " << memo.evictions
       << ", \"entries\": " << memo.entries << "}\n}\n";
    std::ofstream f(path);
    f << os.str();
    std::fprintf(stderr, "wrote %s\n", path.c_str());
}

/** Pull "key": <number> out of a small JSON file; -1 if absent. */
double
jsonNumber(const std::string &text, const std::string &key)
{
    std::string needle = "\"" + key + "\"";
    size_t at = text.find(needle);
    if (at == std::string::npos)
        return -1;
    at = text.find(':', at);
    if (at == std::string::npos)
        return -1;
    return std::strtod(text.c_str() + at + 1, nullptr);
}

int64_t
jsonInt(const std::string &text, const std::string &key)
{
    return static_cast<int64_t>(jsonNumber(text, key));
}

std::string
jsonString(const std::string &text, const std::string &key)
{
    std::string needle = "\"" + key + "\"";
    size_t at = text.find(needle);
    if (at == std::string::npos)
        return "";
    at = text.find(':', at);
    size_t open = text.find('"', at);
    size_t close = text.find('"', open + 1);
    if (open == std::string::npos || close == std::string::npos)
        return "";
    return text.substr(open + 1, close - open - 1);
}

/**
 * Smoke mode for ctest: time prepareProgram, cached formation and
 * writeFunctionAsm of the baseline workload and the 4-thread parallel
 * batch, and compare each against the recorded baseline. A >2x
 * regression fails the test, and so does a synth256 / synth64 compile
 * ratio above scaling_256_64_max. The batch check is skipped when the
 * baseline predates the batch_wall_us_4t key.
 */
int
runSmoke(const char *baseline_path)
{
#ifndef NDEBUG
    std::fprintf(stderr,
                 "formation_speed_smoke: skipped (unoptimized build; "
                 "timings are not comparable to the baseline)\n");
    (void)baseline_path;
    return 0;
#else
    std::ifstream f(baseline_path);
    if (!f) {
        std::fprintf(stderr, "cannot read baseline %s\n", baseline_path);
        return 1;
    }
    std::stringstream buf;
    buf << f.rdbuf();
    std::string baseline = buf.str();
    std::string name = jsonString(baseline, "workload");
    int64_t baseline_us = jsonInt(baseline, "formation_us_cached");
    int64_t prepare_baseline_us = jsonInt(baseline, "prepare_us");
    int64_t asm_baseline_us = jsonInt(baseline, "asm_us");
    if (name.empty() || baseline_us <= 0 || prepare_baseline_us <= 0 ||
        asm_baseline_us <= 0) {
        std::fprintf(stderr, "malformed baseline %s\n", baseline_path);
        return 1;
    }
    Program built;
    if (!buildNamed(name, &built)) {
        std::fprintf(stderr, "baseline workload '%s' not found\n",
                     name.c_str());
        return 1;
    }
    // Untimed warmups: the first run of the process pays allocator and
    // page-fault costs that would bias whichever configuration is
    // measured first.
    timePrepareUs(built, 1);
    int64_t prepare_us = timePrepareUs(built, kRepeats);
    std::fprintf(stderr,
                 "formation_speed_smoke: %s prepare %lld us "
                 "(baseline %lld us, limit %lld us)\n",
                 name.c_str(), static_cast<long long>(prepare_us),
                 static_cast<long long>(prepare_baseline_us),
                 static_cast<long long>(2 * prepare_baseline_us));
    if (prepare_us > 2 * prepare_baseline_us) {
        std::fprintf(stderr,
                     "FAIL: prepareProgram regressed >2x against the "
                     "recorded baseline (%s)\n",
                     baseline_path);
        return 1;
    }

    Program prepared = built.clone();
    prepareProgram(prepared);
    timeFormationUs(prepared, 1);
    int64_t us = timeFormationUs(prepared, kRepeats);
    std::fprintf(stderr,
                 "formation_speed_smoke: %s formation %lld us "
                 "(baseline %lld us, limit %lld us)\n",
                 name.c_str(), static_cast<long long>(us),
                 static_cast<long long>(baseline_us),
                 static_cast<long long>(2 * baseline_us));
    if (us > 2 * baseline_us) {
        std::fprintf(stderr,
                     "FAIL: formation regressed >2x against the "
                     "recorded baseline (%s)\n",
                     baseline_path);
        return 1;
    }

    // The trial-merge fast path must keep beating the cached formation
    // wall time recorded before it existed (the pre-fast-path seed);
    // losing that bound means the scratch arena and memo stopped
    // paying off.
    int64_t seed_us = jsonInt(baseline, "formation_us_seed_cached");
    if (seed_us > 0) {
        std::fprintf(stderr,
                     "formation_speed_smoke: formation %lld us vs "
                     "pre-fast-path seed %lld us\n",
                     static_cast<long long>(us),
                     static_cast<long long>(seed_us));
        if (us > seed_us) {
            std::fprintf(stderr,
                         "FAIL: formation is slower than the "
                         "pre-fast-path seed baseline (%s)\n",
                         baseline_path);
            return 1;
        }
    } else {
        std::fprintf(stderr,
                     "formation_speed_smoke: no formation_us_seed_cached "
                     "in baseline; fast-path check skipped\n");
    }

    // The assembly writer on the compiled workload: a per-block walk
    // that keys ordered maps by register instead of the stamped tables
    // (DESIGN.md section 14) fails here.
    Program compiled = prepared.clone();
    compileOne(compiled,
               SessionOptions().withPipeline(Pipeline::IUPO_fused));
    timeAsmUs(compiled.fn, 1);
    int64_t asm_us = timeAsmUs(compiled.fn, kRepeats);
    std::fprintf(stderr,
                 "formation_speed_smoke: %s asm %lld us "
                 "(baseline %lld us, limit %lld us)\n",
                 name.c_str(), static_cast<long long>(asm_us),
                 static_cast<long long>(asm_baseline_us),
                 static_cast<long long>(2 * asm_baseline_us));
    if (asm_us > 2 * asm_baseline_us) {
        std::fprintf(stderr,
                     "FAIL: writeFunctionAsm regressed >2x against the "
                     "recorded baseline (%s)\n",
                     baseline_path);
        return 1;
    }

    // The functional and timing simulators on the kernels' (IUPO)
    // compiles: the profile, every oracle check and Tables 1-2 run on
    // them. A per-instance std::map walk like the timing simulator's
    // before it decoded blocks (about 4x slower) fails here.
    int64_t sim_baseline_us = jsonInt(baseline, "sim_us");
    if (sim_baseline_us > 0) {
        const std::vector<Program> kernels = compiledKernels();
        timeSimulatorsUs(kernels, 1);
        int64_t sim_us = timeSimulatorsUs(kernels, kRepeats);
        std::fprintf(stderr,
                     "formation_speed_smoke: %zu kernels (IUPO) "
                     "runFunctional + runTiming %lld us "
                     "(baseline %lld us, limit %lld us)\n",
                     kernels.size(), static_cast<long long>(sim_us),
                     static_cast<long long>(sim_baseline_us),
                     static_cast<long long>(2 * sim_baseline_us));
        if (sim_us > 2 * sim_baseline_us) {
            std::fprintf(stderr,
                         "FAIL: the simulators regressed >2x against "
                         "the recorded baseline (%s)\n",
                         baseline_path);
            return 1;
        }
    } else {
        std::fprintf(stderr,
                     "formation_speed_smoke: no sim_us in baseline; "
                     "simulator check skipped\n");
    }

    // Scaling: a compile four times the size must cost less than
    // scaling_256_64_max times as much. Whole-function analyses re-run
    // per merge (a liveness universe as wide as every register, a loop
    // query that scans every loop) fail here; the host's speed does
    // not, since both sides run in this process.
    double scaling_max = jsonNumber(baseline, "scaling_256_64_max");
    if (scaling_max > 0) {
        int64_t small_us = 0, large_us = 0;
        double ratio = scalingRatio(kRepeats, &small_us, &large_us);
        std::fprintf(stderr,
                     "formation_speed_smoke: synth256 %lld us / synth64 "
                     "%lld us = %.2f (limit %.2f)\n",
                     static_cast<long long>(large_us),
                     static_cast<long long>(small_us), ratio,
                     scaling_max);
        if (ratio > scaling_max) {
            std::fprintf(stderr,
                         "FAIL: compile time grows faster than the "
                         "recorded scaling bound (%s)\n",
                         baseline_path);
            return 1;
        }
    } else {
        std::fprintf(stderr,
                     "formation_speed_smoke: no scaling_256_64_max in "
                     "baseline; scaling check skipped\n");
    }

    int64_t batch_baseline_us = jsonInt(baseline, "batch_wall_us_4t");
    const unsigned hw = std::thread::hardware_concurrency();
    if (batch_baseline_us > 0 && hw < 4) {
        // On fewer than 4 cores a 4-thread batch measures scheduler
        // contention, not compiler speed; comparing it against a
        // baseline recorded elsewhere would flag phantom regressions
        // (or mask real ones). Skip rather than guess.
        std::fprintf(stderr,
                     "formation_speed_smoke: hardware_concurrency=%u "
                     "< 4; 4-thread batch check skipped (timings on "
                     "an oversubscribed machine are not comparable)\n",
                     hw);
    } else if (batch_baseline_us > 0) {
        int64_t batch_us = -1;
        for (int r = 0; r < 3; ++r) {
            int64_t us = batchWallUs(prepared, kBatchUnits, 4);
            if (batch_us < 0 || us < batch_us)
                batch_us = us;
        }
        std::fprintf(
            stderr,
            "formation_speed_smoke: %dx %s batch at 4 threads "
            "%lld us (baseline %lld us, limit %lld us)\n",
            kBatchUnits, name.c_str(),
            static_cast<long long>(batch_us),
            static_cast<long long>(batch_baseline_us),
            static_cast<long long>(2 * batch_baseline_us));
        if (batch_us > 2 * batch_baseline_us) {
            std::fprintf(stderr,
                         "FAIL: 4-thread session batch regressed >2x "
                         "against the recorded baseline (%s)\n",
                         baseline_path);
            return 1;
        }
    } else {
        std::fprintf(stderr,
                     "formation_speed_smoke: no batch_wall_us_4t in "
                     "baseline; parallel check skipped\n");
    }
    return 0;
#endif
}

} // namespace

int
main(int argc, char **argv)
{
    bool json_only = false;
    const char *smoke_baseline = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json-only") == 0)
            json_only = true;
        else if (std::strcmp(argv[i], "--smoke") == 0 && i + 1 < argc)
            smoke_baseline = argv[++i];
    }

    if (smoke_baseline)
        return runSmoke(smoke_baseline);

    if (!json_only) {
        benchmark::Initialize(&argc, argv);
        benchmark::RunSpecifiedBenchmarks();
    }

    std::vector<FormationTiming> sweep = sweepFormation(kRepeats);
    std::vector<ThreadTiming> parallel = sweepParallel(kRepeats);
    std::vector<ThreadTiming> generated = sweepGenerated(kRepeats);
    writeJson("BENCH_pass_speed.json", sweep, parallel, generated,
              kRepeats);
    if (const FormationTiming *big = largestWorkload(sweep)) {
        std::fprintf(stderr, "largest workload %s: formation %lld us\n",
                     big->name.c_str(),
                     static_cast<long long>(big->formationUs));
    }
    return 0;
}
