/**
 * @file
 * The traced replay: one compilation unit driven through the public
 * entry point of every layer, in the order detail::compileUnit runs
 * them, with a span recorded around each call.
 *
 * Spans live in memory and are written out as Chrome trace-event JSON
 * (chrome://tracing, Perfetto) when the run ends. A disabled recorder
 * records nothing, so the same replay code measures the recorder's own
 * cost.
 */

#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "hyperblock/phase_ordering.h"
#include "support/stats.h"
#include "workloads/workloads.h"

namespace perfbench {

/** In-memory span recorder. */
class SpanRecorder
{
  public:
    /** A unit span, a layer call inside it, or a simulator check of
     *  the unit's output that runs after it. */
    enum class Kind { Unit, Layer, Check };

    struct Span
    {
        std::string name;
        double startUs = 0.0; ///< since the recorder was created
        double durUs = 0.0;
        uint32_t unit = 0;    ///< shared by every span of one unit
        Kind kind = Kind::Layer;
        std::vector<std::pair<std::string, double>> args;
    };

    /** RAII span: opened on construction, recorded on destruction. */
    class Scope
    {
      public:
        Scope(SpanRecorder &rec, const char *name, uint32_t unit,
              Kind kind = Kind::Layer);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        void arg(const std::string &key, double value);

      private:
        SpanRecorder &rec;
        Span span;
        Clock::time_point start;
    };

    explicit SpanRecorder(bool enabled) : on(enabled) {}

    const std::vector<Span> &spans() const { return recorded; }

    /** Write the first @p max_events spans as Chrome trace-event JSON. */
    bool writeChromeTrace(const std::string &path,
                          size_t max_events) const;

  private:
    bool on;
    Clock::time_point origin = Clock::now();
    std::vector<Span> recorded;
};

/** One compilation unit, source to assembly. */
struct UnitSpec
{
    std::string name;
    std::string source;
    std::vector<int64_t> args;

    /** Registry kernel whose memory initialization the unit applies
     *  (buildWorkload); null for generated and synthetic programs. */
    const chf::Workload *kernel = nullptr;

    chf::Pipeline pipeline = chf::Pipeline::IUPO_fused;

    /** The daemon's keep-going configuration: guarded prepare, plus the
     *  schedule phase only the guarded backend runs. */
    bool guarded = false;
};

/** The unit's program as its frontend produces it (before prepare). */
chf::Program frontendUnit(const UnitSpec &unit);

/** What a replayed unit produced. */
struct ReplayOutput
{
    std::string asmText;
    chf::Program compiled;
    chf::StatSet formation; ///< FormationResult::stats
    size_t spills = 0;
    size_t fanoutMoves = 0;
    size_t splitBlocks = 0;
    double wallUs = 0.0;
};

/**
 * Replay @p unit through frontend, prepareProgram, formHyperblocks,
 * optimizeFunction, the backend and writeFunctionAsm, recording one
 * span per layer call (and the unit span around them) under @p id.
 */
ReplayOutput replayUnit(const UnitSpec &unit, uint32_t id,
                        SpanRecorder &rec);

/** What every compiled unit is checked against. */
struct Reference
{
    Oracle oracle;
    std::string asmText;
    size_t insts = 0;
};

/**
 * Check one compiled unit: not degraded, assembly byte-identical to
 * the reference, and the functional simulator (under a "sim.functional"
 * span) agreeing with the oracle. Every call counts one attempt; every
 * mismatch one failure.
 */
void checkUnit(const Reference &ref, const std::string &name,
               const std::string &asm_text, const chf::Program &compiled,
               bool degraded, SpanRecorder &rec, uint32_t id,
               RunResult &out);

/** Note a digest over every unit's reference assembly, in unit order. */
void noteAsmDigest(const std::vector<Reference> &refs, RunResult &out);

/** Note a metric under its workload-specific name. */
void note(RunResult &out, const std::string &name, double value,
          const std::string &unit);

/**
 * The traced run: replay every unit layer by layer, at least once and
 * until @p seconds are used up. Each recorded replay is paired with an
 * unrecorded one of the same unit (alternating which goes first) to
 * measure the recorder's cost (trace.overhead_pct). Replayed assembly
 * must be byte-identical to the reference. With @p timing_sim every
 * replayed unit also runs on the timing simulator. Writes the Chrome
 * trace to <outDir>/trace_<workload>.json and adds the compile-layer
 * metrics to @p out.
 */
void traceUnits(const Options &opts, const std::vector<UnitSpec> &units,
                const std::vector<Reference> &refs, bool timing_sim,
                double seconds, RunResult &out);

/**
 * The traced run for units the process has not compiled yet: each unit
 * is replayed and recorded exactly once, so its formation sees the
 * trial-memo store as a fresh compiler process would. @p references is
 * called only after those replays (it may compile) and their assembly
 * is checked against what it returns. The recorder's cost comes from
 * replay pairs afterwards, until @p seconds are used up.
 */
void traceUnitsCold(const Options &opts, const std::vector<UnitSpec> &units,
                    const std::function<std::vector<Reference>()> &references,
                    double seconds, RunResult &out);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_H
