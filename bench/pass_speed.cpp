/**
 * @file
 * Compiler-pass throughput: how fast are the analyses, the scalar
 * optimizations, formation, and the simulators. Useful for catching
 * algorithmic regressions in the compiler itself.
 *
 * Three modes:
 *
 *  - default: google-benchmark micro suite, then a formation wall-time
 *    sweep over every speclike workload, then a parallel-session sweep
 *    (an 8-unit synth64 batch at 1/2/4/8 worker threads) and the
 *    generated tier, all written to BENCH_pass_speed.json for
 *    trajectory tracking.
 *  - --json-only: skip the micro suite, emit only the JSON sweeps.
 *  - --smoke <baseline.json>: time formation of the largest speclike
 *    workload (best of 3) and the 4-thread batch config, and
 *    fail if either regressed more than 2x against the recorded
 *    baseline. Wired into ctest so compile-time regressions fail
 *    tier-1. Skipped in unoptimized builds.
 */

#include <benchmark/benchmark.h>

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
#include "backend/scheduler.h"
#include "hyperblock/merge.h"
#include "pipeline/session.h"
#include "report/block_report.h"
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

Program
cloneProgram(const Program &program)
{
    Program copy;
    copy.fn = program.fn.clone();
    copy.memory = program.memory;
    copy.defaultArgs = program.defaultArgs;
    return copy;
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
        Program copy = cloneProgram(p);
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
        Program copy = cloneProgram(p);
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
        Program copy = cloneProgram(p);
        state.ResumeTiming();
        compileOne(copy,
                   SessionOptions().withPipeline(Pipeline::IUPO_fused));
    }
}
BENCHMARK(BM_FullPipeline);

void
BM_Scheduler(benchmark::State &state)
{
    Program compiled = cloneProgram(preparedWorkload());
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

/** Formation time (the usFormation counter), best of @p repeats. */
int64_t
timeFormationUs(const Program &prepared, int repeats,
                FormationTiming *fill = nullptr)
{
    int64_t best = -1;
    for (int r = 0; r < repeats; ++r) {
        Program copy = cloneProgram(prepared);
        FunctionResult result = compileOne(
            copy,
            SessionOptions()
                .withPipeline(Pipeline::IUPO_fused)
                .withBackend(false));
        int64_t us = result.stats.get("usFormation");
        if (best < 0 || us < best)
            best = us;
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
    return best;
}

std::vector<FormationTiming>
sweepFormation(int repeats)
{
    std::vector<Workload> suite = speclikeBenchmarks();
    suite.push_back(synthFormationWorkload(64));
    std::vector<FormationTiming> out;
    for (const Workload &w : suite) {
        Program prepared = buildWorkload(w);
        prepareProgram(prepared);
        FormationTiming t;
        t.name = w.name;
        t.blocks = prepared.fn.numBlocks();
        t.insts = prepared.fn.totalInsts();
        // Untimed warmup so the timed runs do not absorb the
        // workload's cold-start (allocator, page faults).
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

struct ParallelTiming
{
    int threads = 1;
    int64_t wallUs = 0;
};

constexpr int kBatchUnits = 8;
constexpr const char *kBatchWorkload = "synth64";

/**
 * Wall time of compiling a batch of @p units clones of @p prepared
 * through one Session at @p threads workers, best of @p repeats.
 */
int64_t
timeBatchWallUs(const Program &prepared, int units, int threads,
                int repeats)
{
    int64_t best = -1;
    for (int r = 0; r < repeats; ++r) {
        Session session(SessionOptions()
                            .withPipeline(Pipeline::IUPO_fused)
                            .withBackend(false)
                            .withThreads(threads));
        for (int u = 0; u < units; ++u)
            session.addProgram(cloneProgram(prepared), ProfileData{});
        Timer timer;
        session.compile();
        int64_t us = timer.elapsedMicros();
        if (best < 0 || us < best)
            best = us;
    }
    return best;
}

std::vector<ParallelTiming>
sweepParallel(int repeats)
{
    Program prepared;
    buildNamed(kBatchWorkload, &prepared);
    prepareProgram(prepared);

    // On fewer than 4 cores a multi-thread batch measures scheduler
    // contention, not compiler speed; recording those rows would seed
    // future comparisons with garbage, so only the 1-thread row lands
    // in the JSON (mirrors the smoke test's skip rule).
    std::vector<int> thread_counts{1, 2, 4, 8};
    if (std::thread::hardware_concurrency() < 4) {
        std::fprintf(stderr,
                     "parallel sweep: hardware_concurrency=%u < 4; "
                     "multi-thread rows skipped (timings on an "
                     "oversubscribed machine are not comparable)\n",
                     std::thread::hardware_concurrency());
        thread_counts = {1};
    }
    std::vector<ParallelTiming> out;
    for (int threads : thread_counts) {
        ParallelTiming t;
        t.threads = threads;
        t.wallUs =
            timeBatchWallUs(prepared, kBatchUnits, threads, repeats);
        out.push_back(t);
    }

    std::fprintf(stderr,
                 "parallel session batch (%d x %s, formation only):\n"
                 "%8s %12s %8s\n",
                 kBatchUnits, kBatchWorkload, "threads", "wall us",
                 "speedup");
    for (const ParallelTiming &t : out) {
        double speedup = t.wallUs > 0
                             ? static_cast<double>(out[0].wallUs) /
                                   static_cast<double>(t.wallUs)
                             : 0.0;
        std::fprintf(stderr, "%8d %12lld %7.2fx\n", t.threads,
                     static_cast<long long>(t.wallUs), speedup);
    }
    return out;
}

// ----- generated-tier sweep (functions/sec on generator output) -----

struct GeneratedTiming
{
    int threads = 1;
    int64_t wallUs = 0;
};

constexpr int kGeneratedCount = 1000;
constexpr const char *kGeneratedShape = "bench";

/**
 * Compiler throughput on the seeded-generator tier: @p kGeneratedCount
 * single-function programs (the "bench" preset, seeds 1..N) through
 * one full-pipeline Session, wall-clocked at 1 and 4 worker threads.
 * Generation, lowering, and profiling happen up front and are not
 * timed — the sweep measures the compiler, not the generator.
 */
std::vector<GeneratedTiming>
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

    // Same rule as the parallel sweep: no multi-thread rows on a
    // machine that cannot actually run 4 workers.
    std::vector<int> thread_counts{1, 4};
    if (std::thread::hardware_concurrency() < 4) {
        std::fprintf(stderr,
                     "generated sweep: hardware_concurrency=%u < 4; "
                     "multi-thread rows skipped (timings on an "
                     "oversubscribed machine are not comparable)\n",
                     std::thread::hardware_concurrency());
        thread_counts = {1};
    }
    std::vector<GeneratedTiming> out;
    for (int threads : thread_counts) {
        int64_t best = -1;
        for (int r = 0; r < repeats; ++r) {
            Session session(SessionOptions()
                                .withPipeline(Pipeline::IUPO_fused)
                                .withThreads(threads));
            for (int i = 0; i < kGeneratedCount; ++i) {
                session.addProgram(
                    cloneProgram(prepared[static_cast<size_t>(i)]),
                    ProfileData(profiles[static_cast<size_t>(i)]));
            }
            Timer timer;
            session.compile();
            int64_t us = timer.elapsedMicros();
            if (best < 0 || us < best)
                best = us;
        }
        GeneratedTiming t;
        t.threads = threads;
        t.wallUs = best;
        out.push_back(t);
    }

    std::fprintf(stderr,
                 "generated tier (%d x shape:%s, full pipeline):\n"
                 "%8s %12s %14s\n",
                 kGeneratedCount, kGeneratedShape, "threads", "wall us",
                 "functions/sec");
    for (const GeneratedTiming &t : out) {
        double fps = t.wallUs > 0
                         ? 1e6 * kGeneratedCount /
                               static_cast<double>(t.wallUs)
                         : 0.0;
        std::fprintf(stderr, "%8d %12lld %14.0f\n", t.threads,
                     static_cast<long long>(t.wallUs), fps);
    }
    return out;
}

void
writeJson(const std::string &path,
          const std::vector<FormationTiming> &sweep,
          const std::vector<ParallelTiming> &parallel,
          const std::vector<GeneratedTiming> &generated)
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
    os << "  ],\n  \"parallel\": {\"workload\": \"" << kBatchWorkload
       << "\", \"units\": " << kBatchUnits << ", \"runs\": [\n";
    for (size_t i = 0; i < parallel.size(); ++i) {
        const auto &t = parallel[i];
        double speedup =
            t.wallUs > 0 ? static_cast<double>(parallel[0].wallUs) /
                               static_cast<double>(t.wallUs)
                         : 0.0;
        os << "    {\"threads\": " << t.threads
           << ", \"batch_wall_us\": " << t.wallUs
           << ", \"speedup\": " << speedup << "}"
           << (i + 1 < parallel.size() ? "," : "") << "\n";
    }
    os << "  ]},\n  \"generated\": {\"shape\": \"" << kGeneratedShape
       << "\", \"functions\": " << kGeneratedCount << ", \"runs\": [\n";
    for (size_t i = 0; i < generated.size(); ++i) {
        const auto &t = generated[i];
        double fps = t.wallUs > 0
                         ? 1e6 * kGeneratedCount /
                               static_cast<double>(t.wallUs)
                         : 0.0;
        os << "    {\"threads\": " << t.threads
           << ", \"batch_wall_us\": " << t.wallUs
           << ", \"functions_per_sec\": " << fps << "}"
           << (i + 1 < generated.size() ? "," : "") << "\n";
    }
    const TrialMemoStats memo = trialMemoStats();
    os << "  ]},\n  \"memo_store\": {\"hits\": " << memo.hits
       << ", \"misses\": " << memo.misses
       << ", \"evictions\": " << memo.evictions
       << ", \"entries\": " << memo.entries
       << ", \"shards\": " << memo.shards
       << ", \"max_shard_entries\": " << memo.maxShardEntries
       << ", \"capacity\": " << memo.capacity << "}\n}\n";
    std::ofstream f(path);
    f << os.str();
    std::fprintf(stderr, "wrote %s\n", path.c_str());
}

/** Pull "key": <number> out of a small JSON file; -1 if absent. */
int64_t
jsonInt(const std::string &text, const std::string &key)
{
    std::string needle = "\"" + key + "\"";
    size_t at = text.find(needle);
    if (at == std::string::npos)
        return -1;
    at = text.find(':', at);
    if (at == std::string::npos)
        return -1;
    return std::strtoll(text.c_str() + at + 1, nullptr, 10);
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
 * Smoke mode for ctest: time cached formation of the largest speclike
 * workload and the 4-thread parallel batch, and compare each against
 * the recorded baseline. A >2x regression fails the test. The batch
 * check is skipped when the baseline predates the batch_wall_us_4t
 * key.
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
    if (name.empty() || baseline_us <= 0) {
        std::fprintf(stderr, "malformed baseline %s\n", baseline_path);
        return 1;
    }
    Program prepared;
    if (!buildNamed(name, &prepared)) {
        std::fprintf(stderr, "baseline workload '%s' not found\n",
                     name.c_str());
        return 1;
    }
    prepareProgram(prepared);
    // Untimed warmup: the first compile of the process pays allocator
    // and page-fault costs that would bias whichever configuration is
    // measured first.
    timeFormationUs(prepared, 1);
    int64_t us = timeFormationUs(prepared, 3);
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
        int64_t batch_us =
            timeBatchWallUs(prepared, kBatchUnits, 4, 3);
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

    std::vector<FormationTiming> sweep = sweepFormation(3);
    std::vector<ParallelTiming> parallel = sweepParallel(3);
    std::vector<GeneratedTiming> generated = sweepGenerated(3);
    writeJson("BENCH_pass_speed.json", sweep, parallel, generated);
    if (const FormationTiming *big = largestWorkload(sweep)) {
        std::fprintf(stderr, "largest workload %s: formation %lld us\n",
                     big->name.c_str(),
                     static_cast<long long>(big->formationUs));
    }
    return 0;
}
