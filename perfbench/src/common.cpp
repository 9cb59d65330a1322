#include "common.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <unordered_map>

#include <sys/wait.h>
#include <unistd.h>

#include "pipeline/session.h"
#include "sim/functional_sim.h"
#include "sim/timing_sim.h"
#include "support/hash.h"

namespace perfbench {

void
RunResult::fail(const std::string &why)
{
    ++failed;
    std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
}

double
usSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::micro>(Clock::now() - start)
        .count();
}

double
threadCpuUs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e6 +
           static_cast<double>(ts.tv_nsec) / 1e3;
}

namespace {

struct CalNode
{
    std::unique_ptr<CalNode> left, right;
    uint64_t value = 0;
    std::string name;
};

std::unique_ptr<CalNode>
calBuild(std::mt19937_64 &rng, int depth)
{
    auto node = std::make_unique<CalNode>();
    node->value = rng();
    node->name = "v" + std::to_string(node->value % 9973);
    if (depth > 0) {
        node->left = calBuild(rng, depth - 1);
        if (rng() % 4)
            node->right = calBuild(rng, depth - 1);
    }
    return node;
}

uint64_t
calWalk(const CalNode *node, std::unordered_map<std::string, uint64_t> &names,
        std::map<uint64_t, uint64_t> &counts)
{
    if (!node)
        return 1;
    uint64_t h = node->value;
    auto [it, fresh] = names.emplace(node->name, h);
    if (!fresh)
        h ^= it->second;
    if (h % 3 == 0)
        counts[h % 4096] += 1;
    else
        counts.erase(h % 4096);
    return h * 31 + calWalk(node->left.get(), names, counts) +
           calWalk(node->right.get(), names, counts);
}

} // namespace

double
calibrationUs()
{
    const double start = threadCpuUs();
    std::mt19937_64 rng(11);
    uint64_t acc = 0;
    for (int rep = 0; rep < 3; ++rep) {
        std::unique_ptr<CalNode> root = calBuild(rng, 13);
        std::unordered_map<std::string, uint64_t> names;
        std::map<uint64_t, uint64_t> counts;
        acc += calWalk(root.get(), names, counts);
        std::vector<uint64_t> keys(20000);
        for (uint64_t &k : keys)
            k = rng();
        std::sort(keys.begin(), keys.end());
        acc += keys[100];
    }
    volatile uint64_t sink = acc;
    (void)sink;
    return threadCpuUs() - start;
}

double
HostSpeed::medianUs() const
{
    return median(cal_us_);
}

void
runInChild(const std::function<void(RunResult &)> &body, RunResult &out)
{
    int fds[2];
    if (pipe(fds) != 0) {
        ++out.attempted;
        out.fail("cannot create a pipe for a child process");
        return;
    }
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    if (pid == 0) {
        // Report line by line: "A attempted failed", "M name value unit",
        // "N note", then "E" once everything is written.
        close(fds[0]);
        RunResult r;
        body(r);
        std::string text = "A " + std::to_string(r.attempted) + " " +
                           std::to_string(r.failed) + "\n";
        for (const Metric &m : r.metrics)
            text += "M " + m.name + " " + fmt(m.value) + " " + m.unit + "\n";
        for (const std::string &n : r.notes)
            text += "N " + n + "\n";
        text += "E\n";
        for (size_t done = 0; done < text.size();) {
            ssize_t n = write(fds[1], text.data() + done, text.size() - done);
            if (n < 0 && errno != EINTR)
                _exit(1);
            done += n > 0 ? static_cast<size_t>(n) : 0;
        }
        _exit(0);
    }
    close(fds[1]);
    std::string text;
    if (pid > 0) {
        char chunk[4096];
        for (;;) {
            ssize_t n = read(fds[0], chunk, sizeof chunk);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                break;
            text.append(chunk, static_cast<size_t>(n));
        }
    }
    close(fds[0]);
    int status = 1;
    if (pid > 0)
        while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }

    bool ended = false;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        std::istringstream fields(line.size() > 2 ? line.substr(2) : "");
        if (line[0] == 'A') {
            uint64_t attempted = 0, failed = 0;
            fields >> attempted >> failed;
            out.attempted += attempted;
            out.failed += failed;
        } else if (line[0] == 'M') {
            std::string name, value, unit;
            fields >> name >> value >> unit;
            out.add(name, std::strtod(value.c_str(), nullptr), unit);
        } else if (line[0] == 'N') {
            out.notes.push_back(line.substr(2));
        } else if (line == "E") {
            ended = true;
        }
    }
    if (!ended || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        ++out.attempted;
        out.fail("a child process ended without reporting");
    }
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double pos = q * static_cast<double>(values.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
peakRssMb(int pid)
{
    std::string path = pid == 0 ? "/proc/self/status"
                                : "/proc/" + std::to_string(pid) + "/status";
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kb = 0.0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

uint64_t
digest(const std::string &text)
{
    chf::Hash64 h;
    h.bytes(text.data(), text.size());
    return h.digest();
}

std::string
digestHex(const std::string &text)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(digest(text)));
    return buf;
}

chf::Program
cloneProgram(const chf::Program &program)
{
    chf::Program copy;
    copy.fn = program.fn.clone();
    copy.memory = program.memory;
    copy.defaultArgs = program.defaultArgs;
    return copy;
}

Oracle
runOracle(const chf::Program &prepared)
{
    chf::FuncSimResult run = chf::runFunctional(prepared);
    return {run.returnValue, run.memory.userHash()};
}

std::string
checkAgainstOracle(const Oracle &expect, const chf::Program &compiled)
{
    chf::FuncSimResult run = chf::runFunctional(compiled);
    if (run.returnValue != expect.returnValue)
        return "return value " + std::to_string(run.returnValue) +
               " != oracle " + std::to_string(expect.returnValue);
    if (run.memory.userHash() != expect.userHash)
        return "program-visible memory differs from the oracle";
    return std::string();
}

std::string
fmt(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

void
Quality::add(const chf::Program &prepared, const chf::ProfileData &profile,
             const chf::Program &compiled)
{
    chf::Session session(
        chf::SessionOptions().withPipeline(chf::Pipeline::BB));
    size_t unit = session.addProgram(cloneProgram(prepared),
                                     chf::ProfileData(profile));
    session.compile(1);
    chf::TimingResult bb = chf::runTiming(session.program(unit));
    chf::TimingResult hb = chf::runTiming(compiled);
    speedups.push_back(static_cast<double>(bb.cycles) /
                       static_cast<double>(hb.cycles));
    blockRatios.push_back(static_cast<double>(hb.blocksExecuted) /
                          static_cast<double>(bb.blocksExecuted));
}

void
addEndToEnd(RunResult &out, const std::vector<double> &setup_s,
            double unit_ms_p50, double units_per_s, double code_size_insts,
            double peak_rss_mb, const Quality &quality)
{
    out.add("setup_s", median(setup_s), "s");
    out.add("unit_ms_p50", unit_ms_p50, "ms");
    out.add("units_per_s", units_per_s, "1/s");
    out.add("code_size_insts", code_size_insts, "insts");
    out.add("peak_rss_mb", peak_rss_mb, "MB");
    out.add("speedup_vs_bb", geomean(quality.speedups), "ratio");
    out.add("blocks_ratio_vs_bb", geomean(quality.blockRatios), "ratio");
}

void
addSessionMetrics(RunResult &out, double add_us, double compile_us,
                  double busy_ratio, double spec_wasted_ratio)
{
    out.add("session.add.us", add_us, "us");
    out.add("session.compile.us", compile_us, "us");
    out.add("session.busy_ratio", busy_ratio, "ratio");
    out.add("formation.spec_wasted_ratio", spec_wasted_ratio, "ratio");
}

void
addServerMetrics(RunResult &out, double handle_cold_us,
                 double handle_warm_us, double transport_warm_us,
                 double cache_hit_ratio, double shed)
{
    out.add("server.handle_cold.us", handle_cold_us, "us");
    out.add("server.handle_warm.us", handle_warm_us, "us");
    out.add("server.transport_warm.us", transport_warm_us, "us");
    out.add("server.cache_hit_ratio", cache_hit_ratio, "ratio");
    out.add("server.shed", shed, "count");
}

} // namespace perfbench
