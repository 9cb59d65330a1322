/**
 * @file
 * Shared pieces of the perfbench binary: command-line options, the
 * result every workload returns, statistics helpers, and the
 * simulator oracle every compiled unit is checked against.
 */

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analysis/profile.h"
#include "ir/program.h"

namespace perfbench {

/** Parsed command line. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;

    /** chf_serve binary for the serve workload. */
    std::string serveBinary;

    /** Directory for the trace JSON and the daemon socket. */
    std::string outDir;
};

/** One named metric of the final JSON line. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a workload run reports. */
struct RunResult
{
    uint64_t attempted = 0;
    uint64_t failed = 0;

    /** The JSON metrics, in print order. */
    std::vector<Metric> metrics;

    /** Human-readable lines printed before the JSON line. */
    std::vector<std::string> notes;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** Count one failure and say why on stderr. */
    void fail(const std::string &why);
};

using Clock = std::chrono::steady_clock;

/** Set-ups per run; setup_s is their median, each scaled to the
 *  reference host speed (HostSpeed). */
constexpr int kSetups = 5;

/** Microseconds since @p start, as a double. */
double usSince(Clock::time_point start);

/**
 * CPU time of the calling thread in microseconds. The one-thread
 * workloads time their units with it, so that time the thread spends
 * descheduled on a shared host does not count.
 */
double threadCpuUs();

/**
 * A fixed stand-in for the host's speed: build and walk a tree of
 * string-named nodes through a hash map and an ordered map, then sort,
 * three times; allocation- and pointer-heavy like the compiler, but
 * code the benchmark owns, so no change to src/ moves it. Returns its
 * thread CPU time in microseconds.
 *
 * The host has stretches in which a synth64 compile takes about 1.5
 * times its quiet CPU time, and how often they come drifts over
 * minutes; this workload slows in the same stretches (about 1.2 to 1.3
 * times). Every workload divides its gated times by the calibrations on
 * either side of them and reports them at kCalibrationRefUs (HostSpeed;
 * README, "Run-to-run spread").
 */
double calibrationUs();

/**
 * The reference host speed: about what calibrationUs() takes in quiet
 * moments on a 4-vCPU Xeon (Sapphire Rapids) KVM guest, RelWithDebInfo.
 * Scaled times read as if taken at that speed.
 */
constexpr double kCalibrationRefUs = 7000.0;

/**
 * Calibrations between the timed rounds of a workload. Construction
 * calibrates once; next(), called when a round ends, calibrates again
 * and returns the factor that takes the round's times to the reference
 * host speed: kCalibrationRefUs over the mean of the calibrations on
 * either side of the round.
 */
class HostSpeed
{
  public:
    HostSpeed() : cal_us_{calibrationUs()} {}

    double
    next()
    {
        cal_us_.push_back(calibrationUs());
        return kCalibrationRefUs /
               ((cal_us_[cal_us_.size() - 2] + cal_us_.back()) / 2);
    }

    /** Median calibration time, for the printed figures. */
    double medianUs() const;

  private:
    std::vector<double> cal_us_;
};

/**
 * Run @p body in a forked child and add what it reports (attempts,
 * failures, metrics, notes) to @p out. The child starts from a copy of
 * this process, so process-wide state (the trial-memo store) is as
 * this process left it, and nothing the child does changes this
 * process. A child that does not report counts one failure.
 */
void runInChild(const std::function<void(RunResult &)> &body,
                RunResult &out);

/** Linear-interpolated quantile @p q in [0, 1]; 0 for an empty set. */
double quantile(std::vector<double> values, double q);

inline double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

/** Geometric mean of positive values; 0 for an empty set. */
double geomean(const std::vector<double> &values);

/** VmHWM of process @p pid (0 = this process) in MB; 0 if unreadable. */
double peakRssMb(int pid = 0);

/** 64-bit FNV-1a digest of @p text, as 16 hex digits. */
std::string digestHex(const std::string &text);
uint64_t digest(const std::string &text);

/** Deep copy of a program (Function holds unique_ptrs). */
chf::Program cloneProgram(const chf::Program &program);

/**
 * Reference behaviour of a prepared, unoptimized program under the
 * functional simulator: the return value and program-visible memory a
 * compiled version must reproduce.
 */
struct Oracle
{
    int64_t returnValue = 0;
    uint64_t userHash = 0;
};

Oracle runOracle(const chf::Program &prepared);

/**
 * Run @p compiled on the functional simulator and compare with
 * @p expect. Returns an empty string on a match, else why not.
 */
std::string checkAgainstOracle(const Oracle &expect,
                               const chf::Program &compiled);

/** Format a double with enough digits to round-trip. */
std::string fmt(double value);

/** How the compiled code of a workload compares with basic blocks. */
struct Quality
{
    std::vector<double> speedups;    ///< BB cycles / compiled cycles
    std::vector<double> blockRatios; ///< compiled / BB blocks executed

    /** Compile @p prepared under the BB pipeline and run both it and
     *  @p compiled on the timing simulator. */
    void add(const chf::Program &prepared,
             const chf::ProfileData &profile,
             const chf::Program &compiled);
};

/**
 * The end-to-end metrics every workload reports (BENCHMARK.json
 * "end_to_end"): median set-up time, per-unit latency median, units per
 * second, static code size, peak RSS, and the geomean code quality
 * against basic blocks. Each workload prints its tail percentiles and
 * sample counts itself.
 */
void addEndToEnd(RunResult &out, const std::vector<double> &setup_s,
                 double unit_ms_p50, double units_per_s,
                 double code_size_insts, double peak_rss_mb,
                 const Quality &quality);

/** Session-layer metrics; zero where a workload has no Session pass. */
void addSessionMetrics(RunResult &out, double add_us, double compile_us,
                       double busy_ratio, double spec_wasted_ratio);

/** Server-layer metrics; zero outside the serve workload. */
void addServerMetrics(RunResult &out, double handle_cold_us,
                      double handle_warm_us, double transport_warm_us,
                      double cache_hit_ratio, double shed);

/** Workload entry points. */
void runSynth64(const Options &opts, RunResult &out);
void runGenBatch(const Options &opts, RunResult &out);
void runKernels(const Options &opts, RunResult &out);
void runServe(const Options &opts, RunResult &out);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
