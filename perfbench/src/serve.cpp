/**
 * @file
 * The serve workload: a spawned `chf_serve --socket` daemon driven
 * closed-loop over four unix-socket connections from one client thread
 * with poll(). The client replays 200 distinct generated programs
 * (emit_asm on) in seeded orders, each requested several times; the
 * distinct set fits the daemon's default 256-entry cache, so the first
 * request of a program compiles (cold) and the others are cache reads
 * (warm).
 */

#include <algorithm>
#include <cerrno>
#include <functional>
#include <memory>
#include <random>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "backend/asm_writer.h"
#include "pipeline/server.h"
#include "pipeline/session.h"
#include "replay.h"
#include "workloads/generator.h"

namespace perfbench {

namespace {

constexpr size_t kDistinct = 200;
constexpr int kRepeats = 4;
constexpr size_t kWarmupSpecs = 16;
constexpr size_t kConnections = 4;
constexpr int kStallMs = 60000;

/**
 * The daemon process. The constructor spawns it; stop() (also run by
 * the destructor, so every exit path takes it) signals it, reaps it
 * and removes the socket.
 */
class Daemon
{
  public:
    Daemon(const std::string &binary, const std::string &socket_path)
        : path(socket_path)
    {
        unlink(path.c_str());
        std::string flag = "--socket=" + path;
        char *argv[] = {const_cast<char *>(binary.c_str()),
                        const_cast<char *>(flag.c_str()), nullptr};
        pid_t parent = getpid();
        pid_t child = fork();
        if (child == 0) {
            // Die with the benchmark even if it is killed outright.
            prctl(PR_SET_PDEATHSIG, SIGTERM);
            if (getppid() == parent)
                execv(binary.c_str(), argv);
            _exit(127);
        }
        pid = child;
    }

    ~Daemon() { stop(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    pid_t id() const { return pid; }

    /** Connect, retrying while the daemon starts; -1 after @p ms. */
    int
    connectWithin(int ms) const
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (pid <= 0 || path.size() >= sizeof addr.sun_path)
            return -1;
        std::copy(path.begin(), path.end(), addr.sun_path);
        Clock::time_point start = Clock::now();
        while (usSince(start) < ms * 1e3) {
            int fd = socket(AF_UNIX, SOCK_STREAM, 0);
            if (fd < 0)
                return -1;
            if (connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof addr) == 0)
                return fd;
            close(fd);
            if (waitpid(pid, nullptr, WNOHANG) == pid)
                return -1; // the daemon died while starting
            usleep(2000);
        }
        return -1;
    }

    /** SIGTERM, wait for the exit, remove the socket. Idempotent. */
    void
    stop()
    {
        if (pid > 0) {
            kill(pid, SIGTERM);
            while (waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
            }
            pid = -1;
        }
        unlink(path.c_str());
    }

  private:
    std::string path;
    pid_t pid = -1;
};

/** Client connections, each with at most one request outstanding. */
class Client
{
  public:
    Client() = default;
    ~Client()
    {
        for (Conn &c : conns)
            if (c.fd >= 0)
                close(c.fd);
    }
    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    bool
    open(const Daemon &daemon, size_t n)
    {
        for (size_t i = 0; i < n; ++i) {
            int fd = daemon.connectWithin(10000);
            if (fd < 0)
                return false;
            fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
            conns.emplace_back();
            conns.back().fd = fd;
        }
        return true;
    }

    using Handler =
        std::function<void(size_t request, double us, const std::string &)>;

    /**
     * Closed loop: every idle connection sends requests[next()] until
     * next() returns -1, and each response line goes to @p on_response
     * with its latency (queued to fully received). Returns after every
     * sent request has its response; the count of requests that got
     * none (connection lost, or no byte for kStallMs) is returned.
     */
    size_t
    run(const std::vector<std::string> &requests,
        const std::function<long()> &next, const Handler &on_response)
    {
        size_t missing = 0;
        bool more = true;
        std::vector<pollfd> pfds;
        std::vector<Conn *> polled;
        for (;;) {
            for (Conn &c : conns) {
                if (!more || c.fd < 0 || c.request >= 0)
                    continue;
                long r = next();
                if (r < 0) {
                    more = false;
                    break;
                }
                c.request = r;
                c.out = requests[static_cast<size_t>(r)] + "\n";
                c.sent = Clock::now();
            }
            pfds.clear();
            polled.clear();
            for (Conn &c : conns) {
                if (c.fd < 0 || c.request < 0)
                    continue;
                pfds.push_back(pollfd{
                    c.fd,
                    static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)),
                    0});
                polled.push_back(&c);
            }
            if (pfds.empty())
                return missing;
            int ready = poll(pfds.data(), pfds.size(), kStallMs);
            if (ready < 0 && errno == EINTR)
                continue;
            if (ready <= 0) {
                // Stalled: every outstanding request is lost.
                for (Conn *c : polled)
                    missing += drop(*c);
                continue;
            }
            for (size_t i = 0; i < pfds.size(); ++i) {
                Conn &c = *polled[i];
                if (pfds[i].revents & POLLOUT) {
                    ssize_t n = send(c.fd, c.out.data(), c.out.size(),
                                     MSG_NOSIGNAL);
                    if (n > 0)
                        c.out.erase(0, static_cast<size_t>(n));
                    else if (n < 0 && errno != EAGAIN && errno != EINTR)
                        missing += drop(c);
                }
                if (c.fd < 0 ||
                    !(pfds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                    continue;
                char chunk[65536];
                ssize_t n = read(c.fd, chunk, sizeof chunk);
                if (n < 0 && (errno == EAGAIN || errno == EINTR))
                    continue;
                if (n <= 0) {
                    missing += drop(c);
                    continue;
                }
                c.in.append(chunk, static_cast<size_t>(n));
                size_t nl = c.in.find('\n');
                if (nl != std::string::npos && c.request >= 0) {
                    double us = usSince(c.sent);
                    std::string line = c.in.substr(0, nl);
                    c.in.erase(0, nl + 1);
                    size_t request = static_cast<size_t>(c.request);
                    c.request = -1;
                    on_response(request, us, line);
                }
            }
        }
    }

  private:
    struct Conn
    {
        int fd = -1;
        long request = -1;
        std::string out;
        std::string in;
        Clock::time_point sent;
    };

    /** Close @p c; 1 if it had a request outstanding. */
    static size_t
    drop(Conn &c)
    {
        close(c.fd);
        c.fd = -1;
        size_t lost = c.request >= 0 ? 1 : 0;
        c.request = -1;
        return lost;
    }

    std::vector<Conn> conns;
};

std::string
genSpec(uint64_t seed)
{
    return "seed:" + std::to_string(seed) + ",shape:bench";
}

std::string
compileRequest(const std::string &spec)
{
    return "{\"op\":\"compile\",\"gen\":\"" + spec + "\",\"emit_asm\":true}";
}

/** Numeric field @p key of a flat JSON response; -1 if absent. */
double
field(const std::string &line, const std::string &key)
{
    size_t at = line.find("\"" + key + "\":");
    if (at == std::string::npos)
        return -1;
    return std::strtod(line.c_str() + at + key.size() + 3, nullptr);
}

/** The JSON-quoted "asm" value: the last field of a compile response. */
std::string
asmField(const std::string &line)
{
    size_t at = line.find("\"asm\":");
    if (at == std::string::npos || line.empty())
        return std::string();
    return line.substr(at + 6, line.size() - 1 - (at + 6));
}

/** What the client saw of one distinct program. */
struct Served
{
    bool seen = false;
    uint64_t asmDigest = 0;
    double insts = 0;
};

/** Latencies and checks accumulated over closed-loop passes. */
struct Traffic
{
    explicit Traffic(size_t requests) : served(requests) {}

    std::vector<double> coldUs;
    std::vector<double> warmUs;
    std::vector<Served> served;
    double wallUs = 0;
    size_t responses = 0;
};

/**
 * Drive @p client through one pass over @p order in a fresh seeded
 * shuffle, adding to @p t. Checks every response: status
 * ok, not degraded, assembly present, and the same assembly every time
 * a program is served (cold or warm, by any daemon of the run).
 */
void
drive(Client &client, const std::vector<std::string> &requests,
      std::vector<size_t> order, std::mt19937_64 &rng, Traffic &t,
      RunResult &out)
{
    std::shuffle(order.begin(), order.end(), rng);
    size_t pos = 0;
    Clock::time_point start = Clock::now();
    auto next = [&]() -> long {
        return pos < order.size() ? static_cast<long>(order[pos++]) : -1;
    };
    auto on_response = [&](size_t r, double us, const std::string &line) {
        ++out.attempted;
        ++t.responses;
        const std::string why =
            line.find("\"status\":\"ok\"") == std::string::npos
                ? "status is not ok"
            : line.find("\"degraded\":false") == std::string::npos
                ? "compile degraded"
                : std::string();
        const std::string quoted = asmField(line);
        if (!why.empty() || quoted.empty()) {
            out.fail(requests[r] + ": " +
                     (why.empty() ? "no assembly" : why));
            return;
        }
        const bool warm = line.find("\"cached\":true") != std::string::npos;
        (warm ? t.warmUs : t.coldUs).push_back(us);
        Served &s = t.served[r];
        const uint64_t d = digest(quoted);
        if (!s.seen) {
            s = Served{true, d, field(line, "insts")};
        } else if (s.asmDigest != d) {
            out.fail(requests[r] + ": assembly differs between responses");
        }
    };
    size_t missing = client.run(requests, next, on_response);
    t.wallUs += usSince(start);
    for (size_t i = 0; i < missing; ++i) {
        ++out.attempted;
        out.fail("a request got no response");
    }
}

/** One stats round trip; the parsed response line (empty on failure). */
std::string
daemonStats(Client &client)
{
    std::string line;
    std::vector<std::string> req{"{\"op\":\"stats\"}"};
    bool sent = false;
    client.run(
        req, [&]() -> long { return sent ? -1 : (sent = true, 0); },
        [&](size_t, double, const std::string &l) { line = l; });
    return line;
}

/** A running daemon and the client's connections to it. */
struct Instance
{
    std::unique_ptr<Daemon> daemon;
    std::unique_ptr<Client> client;

    /** Close the connections first: every response has arrived. */
    void
    reset()
    {
        client.reset();
        daemon.reset();
    }
};

/**
 * Start a daemon, connect, and run the untimed warm-up pass over
 * programs the measured stream never asks for. False (a counted
 * failure) when the daemon does not come up.
 */
bool
startDaemon(const Options &opts, const std::vector<std::string> &requests,
            const std::vector<size_t> &warmup_order, std::mt19937_64 &rng,
            Instance &inst, RunResult &out)
{
    inst.reset();
    inst.daemon = std::make_unique<Daemon>(opts.serveBinary,
                                           opts.outDir + "/serve.sock");
    inst.client = std::make_unique<Client>();
    if (!inst.client->open(*inst.daemon, kConnections)) {
        ++out.attempted;
        out.fail("chf_serve did not accept " +
                 std::to_string(kConnections) + " connections");
        return false;
    }
    Traffic warmup(requests.size());
    drive(*inst.client, requests, warmup_order, rng, warmup, out);
    return true;
}

/**
 * With every response in, read the daemon's stats op and peak RSS,
 * then stop it. Shed or failed requests count as failures.
 */
void
stopDaemon(Instance &inst, std::vector<double> &rss_mb, double &shed,
           RunResult &out)
{
    const std::string stats = daemonStats(*inst.client);
    const double daemon_shed = field(stats, "shed");
    const double errors = field(stats, "errors");
    rss_mb.push_back(peakRssMb(inst.daemon->id()));
    inst.reset();
    shed += std::max(daemon_shed, 0.0);
    ++out.attempted;
    if (stats.empty() || daemon_shed != 0 || errors != 0)
        out.fail("daemon stats report shed=" + fmt(daemon_shed) +
                 " errors=" + fmt(errors));
}

/**
 * The in-process reference for one distinct program: compiled exactly
 * as CompileServer::handle compiles a keep-going gen request, checked
 * against the oracle of its prepared program, and measured for code
 * quality.
 */
Reference
referenceCompile(uint64_t seed, const chf::GeneratorShape &shape,
                 Quality &quality, RunResult &out)
{
    chf::Program program =
        chf::buildGenerated(chf::generateTinyC(seed, shape));
    chf::DiagnosticEngine diags;
    chf::ProfileData profile =
        chf::prepareProgram(program, {}, true, &diags, true);
    chf::Program prepared = cloneProgram(program);
    chf::Session session(chf::SessionOptions()
                             .withPipeline(chf::Pipeline::IUPO_fused)
                             .withKeepGoing(true)
                             .withThreads(1));
    session.addProgramRef(program, profile);
    session.compile();

    Reference ref;
    ref.oracle = runOracle(prepared);
    ref.asmText = chf::writeFunctionAsm(program.fn);
    ref.insts = program.fn.totalInsts();
    quality.add(prepared, profile, program);
    SpanRecorder off(false);
    checkUnit(ref, genSpec(seed), ref.asmText, program, false, off, 0, out);
    return ref;
}

} // namespace

void
runServe(const Options &opts, RunResult &out)
{
    if (opts.serveBinary.empty()) {
        out.fail("the serve workload needs --serve-bin");
        return;
    }
    chf::GeneratorShape shape;
    chf::namedShape("bench", &shape);

    // Distinct programs of the measured stream, then the warm-up set.
    std::vector<uint64_t> seeds;
    std::vector<std::string> requests;
    for (size_t i = 0; i < kDistinct + kWarmupSpecs; ++i) {
        uint64_t seed = i < kDistinct ? i + 1 : 1000 + i;
        seeds.push_back(seed);
        requests.push_back(compileRequest(genSpec(seed)));
    }
    std::vector<size_t> order, warmup_order;
    for (int k = 0; k < kRepeats; ++k)
        for (size_t i = 0; i < requests.size(); ++i)
            (i < kDistinct ? order : warmup_order).push_back(i);
    std::mt19937_64 rng(opts.seed);

    // Set-up: daemon start, connections and the warm-up pass. Repeated,
    // keeping the last daemon for the first measured round.
    std::vector<double> setup_s;
    HostSpeed setup_speed;
    Instance inst;
    for (int k = 0; k < kSetups; ++k) {
        Clock::time_point start = Clock::now();
        if (!startDaemon(opts, requests, warmup_order, rng, inst, out))
            return;
        setup_s.push_back(usSince(start) / 1e6 * setup_speed.next());
    }

    // Rounds of one daemon each, until the run time is used up. A round
    // is one pass: every distinct program kRepeats times in a seeded
    // order, so its first request compiles (cold) and the others read
    // the cache (warm).
    const double seconds = opts.trace ? opts.seconds / 2 : opts.seconds;
    Traffic t(requests.size());
    std::vector<double> rss_mb;
    double shed = 0;
    // The gated figures are scaled to the reference host speed round by
    // round (HostSpeed), calibrating with no daemon up: cold latencies
    // one by one, and each round's responses per second.
    HostSpeed speed;
    std::vector<double> scaled_cold_ms, scaled_rps;
    Clock::time_point start = Clock::now();
    do {
        if (!inst.daemon &&
            !startDaemon(opts, requests, warmup_order, rng, inst, out))
            return;
        const size_t cold0 = t.coldUs.size(), responses0 = t.responses;
        const double wall0 = t.wallUs;
        drive(*inst.client, requests, order, rng, t, out);
        stopDaemon(inst, rss_mb, shed, out);
        const double scale = speed.next();
        for (size_t i = cold0; i < t.coldUs.size(); ++i)
            scaled_cold_ms.push_back(t.coldUs[i] / 1e3 * scale);
        scaled_rps.push_back(static_cast<double>(t.responses - responses0) /
                             ((t.wallUs - wall0) / 1e6) / scale);
    } while (usSince(start) < seconds * 1e6);

    // The units the daemons compiled, for the traced replay. Nothing has
    // been compiled in this process yet.
    std::vector<UnitSpec> units;
    for (size_t i = 0; i < kDistinct; ++i) {
        chf::GeneratedProgram g = chf::generateTinyC(seeds[i], shape);
        units.push_back(UnitSpec{"gen_" + std::to_string(seeds[i]), g.source,
                                 g.args, nullptr,
                                 chf::Pipeline::IUPO_fused, true});
    }

    const double rps = static_cast<double>(t.responses) / (t.wallUs / 1e6);
    const double warm_p50 = quantile(t.warmUs, 0.5);
    if (opts.trace) {
        // The daemons' cold compiles start with an empty trial-memo
        // store, and so must the replay and the in-process handle() runs
        // that explain them. The replay runs in a child forked while
        // this process has compiled nothing; the handle() stream runs
        // here once the child is done, still before any compile here.
        runInChild(
            [&](RunResult &child) {
                traceUnitsCold(
                    opts, units,
                    [&] {
                        Quality unused;
                        std::vector<Reference> refs;
                        for (size_t i = 0; i < kDistinct; ++i)
                            refs.push_back(referenceCompile(
                                seeds[i], shape, unused, child));
                        return refs;
                    },
                    opts.seconds / 2, child);
            },
            out);

        // The same stream through an in-process CompileServer: the
        // protocol's own cost, cold and warm, without the socket.
        chf::CompileServer local;
        std::vector<double> cold, warm;
        for (size_t r : order) {
            Clock::time_point start = Clock::now();
            std::string line = local.handle(requests[r]);
            double us = usSince(start);
            (line.find("\"cached\":true") != std::string::npos ? warm : cold)
                .push_back(us);
        }
        addSessionMetrics(out, 0, 0, 0, 0);
        addServerMetrics(
            out, median(cold), median(warm), warm_p50 - median(warm),
            static_cast<double>(t.warmUs.size()) /
                static_cast<double>(t.responses),
            shed);
    }

    // Every distinct program the daemon served must match the
    // in-process reference compile byte for byte.
    Quality quality;
    std::vector<Reference> refs;
    double code_size = 0;
    for (size_t i = 0; i < kDistinct; ++i) {
        refs.push_back(referenceCompile(seeds[i], shape, quality, out));
        const Served &s = t.served[i];
        const uint64_t want = digest(chf::jsonQuote(refs[i].asmText));
        if (!s.seen || s.asmDigest != want ||
            s.insts != static_cast<double>(refs[i].insts))
            out.fail(requests[i] + ": response differs from the reference");
        code_size += s.insts;
    }
    noteAsmDigest(refs, out);
    if (opts.trace)
        return;

    std::vector<double> cold_ms;
    for (double us : t.coldUs)
        cold_ms.push_back(us / 1e3);
    addEndToEnd(out, setup_s, median(scaled_cold_ms), median(scaled_rps),
                code_size, median(rss_mb), quality);
    note(out, "calibration_us_p50", speed.medianUs(), "us");
    note(out, "serve_cold_p50_ms", quantile(cold_ms, 0.5), "ms");
    note(out, "serve_cold_p90_ms", quantile(cold_ms, 0.9), "ms");
    note(out, "serve_warm_p50_us", warm_p50, "us");
    note(out, "serve_warm_p99_us", quantile(t.warmUs, 0.99), "us");
    note(out, "serve_rps", rps, "1/s");
    out.notes.push_back("responses: " + std::to_string(t.coldUs.size()) +
                        " cold, " + std::to_string(t.warmUs.size()) +
                        " warm, from " + std::to_string(rss_mb.size()) +
                        " daemons");
}

} // namespace perfbench
