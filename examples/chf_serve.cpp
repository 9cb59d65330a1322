/**
 * @file
 * chf_serve — the long-lived compile daemon and its replay client.
 *
 * The daemon wraps chf::CompileServer (pipeline/server.h) in a
 * transport: newline-delimited JSON requests, one response line per
 * request line. Protocol and knobs: docs/operations.md.
 *
 *   chf_serve --stdio                      serve stdin/stdout
 *   chf_serve --socket=/tmp/chf.sock       unix-socket daemon
 *   chf_serve --connect=/tmp/chf.sock \
 *             --replay=requests.ndjson \
 *             --concurrency=8 --summary    replay client
 *
 * Server knobs (daemon modes):
 *   --cache-cap=N     LRU compile-cache entries (default 256)
 *   --max-inflight=N  concurrent compiles before shedding (default 8)
 *   --timeout-ms=N    default per-request budget (default none)
 *   --no-backend      formation only, skip regalloc/fanout/schedule
 *
 * Client mode sends every line of --replay (stdin if omitted) over
 * --concurrency connections, prints each response, and with --summary
 * tallies statuses — scripts/check_server.sh drives the campaign this
 * way.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "pipeline/server.h"

using namespace chf;

namespace {

volatile std::sig_atomic_t g_stop = 0;
const char *g_socket_path = nullptr;

void
onSignal(int)
{
    // unlink is async-signal-safe; drop the socket so a restart can
    // bind again, then let the default teardown happen.
    if (g_socket_path)
        unlink(g_socket_path);
    g_stop = 1;
    _exit(0);
}

bool
sendAll(int fd, const std::string &data)
{
    size_t off = 0;
    while (off < data.size()) {
        ssize_t n = write(fd, data.data() + off, data.size() - off);
        if (n <= 0)
            return false;
        off += static_cast<size_t>(n);
    }
    return true;
}

/** Buffered newline framing over a file descriptor. */
struct LineReader
{
    int fd;
    std::string buf;

    bool
    readLine(std::string *out)
    {
        for (;;) {
            size_t nl = buf.find('\n');
            if (nl != std::string::npos) {
                *out = buf.substr(0, nl);
                buf.erase(0, nl + 1);
                return true;
            }
            char chunk[4096];
            ssize_t n = read(fd, chunk, sizeof chunk);
            if (n <= 0)
                return false;
            buf.append(chunk, static_cast<size_t>(n));
        }
    }
};

void
serveConnection(CompileServer *server, int fd)
{
    LineReader reader{fd, {}};
    std::string line;
    while (reader.readLine(&line)) {
        if (line.empty())
            continue;
        if (!sendAll(fd, server->handle(line) + "\n"))
            break;
    }
    close(fd);
}

int
runSocketDaemon(CompileServer &server, const char *path)
{
    int listener = socket(AF_UNIX, SOCK_STREAM, 0);
    if (listener < 0) {
        std::perror("socket");
        return 1;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (std::strlen(path) >= sizeof addr.sun_path) {
        std::fprintf(stderr, "socket path too long: %s\n", path);
        return 1;
    }
    std::strcpy(addr.sun_path, path);
    unlink(path);
    if (bind(listener, reinterpret_cast<sockaddr *>(&addr),
             sizeof addr) != 0) {
        std::perror("bind");
        return 1;
    }
    if (listen(listener, 64) != 0) {
        std::perror("listen");
        return 1;
    }
    g_socket_path = path;
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::fprintf(stderr, "chf_serve: listening on %s\n", path);

    while (!g_stop) {
        int fd = accept(listener, nullptr, nullptr);
        if (fd < 0)
            continue;
        std::thread(serveConnection, &server, fd).detach();
    }
    close(listener);
    unlink(path);
    return 0;
}

int
runStdio(CompileServer &server)
{
    std::string line;
    while (std::getline(std::cin, line)) {
        if (line.empty())
            continue;
        std::string response = server.handle(line);
        std::fwrite(response.data(), 1, response.size(), stdout);
        std::fputc('\n', stdout);
        std::fflush(stdout);
    }
    return 0;
}

int
connectTo(const char *path)
{
    int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (std::strlen(path) >= sizeof addr.sun_path) {
        close(fd);
        return -1;
    }
    std::strcpy(addr.sun_path, path);
    if (connect(fd, reinterpret_cast<sockaddr *>(&addr),
                sizeof addr) != 0) {
        close(fd);
        return -1;
    }
    return fd;
}

/** "status":"xyz" value of a response line (crude but sufficient). */
std::string
responseStatus(const std::string &response)
{
    size_t at = response.find("\"status\":\"");
    if (at == std::string::npos)
        return "?";
    at += 10;
    size_t end = response.find('"', at);
    return response.substr(at, end - at);
}

int
runClient(const char *path, const char *replay_file, int concurrency,
          bool summary, bool quiet)
{
    std::vector<std::string> requests;
    if (replay_file) {
        std::ifstream in(replay_file);
        if (!in) {
            std::fprintf(stderr, "cannot open %s\n", replay_file);
            return 1;
        }
        std::string line;
        while (std::getline(in, line))
            if (!line.empty())
                requests.push_back(line);
    } else {
        std::string line;
        while (std::getline(std::cin, line))
            if (!line.empty())
                requests.push_back(line);
    }
    if (requests.empty()) {
        std::fprintf(stderr, "no requests to send\n");
        return 1;
    }
    if (concurrency < 1)
        concurrency = 1;

    std::vector<std::string> responses(requests.size());
    std::atomic<size_t> next{0};
    std::atomic<int> failures{0};

    auto worker = [&] {
        int fd = connectTo(path);
        if (fd < 0) {
            failures.fetch_add(1);
            return;
        }
        LineReader reader{fd, {}};
        for (;;) {
            size_t i = next.fetch_add(1);
            if (i >= requests.size())
                break;
            if (!sendAll(fd, requests[i] + "\n") ||
                !reader.readLine(&responses[i])) {
                failures.fetch_add(1);
                break;
            }
        }
        close(fd);
    };

    std::vector<std::thread> threads;
    for (int t = 0; t < concurrency; ++t)
        threads.emplace_back(worker);
    for (std::thread &t : threads)
        t.join();

    size_t ok = 0, shed = 0, timeout = 0, error = 0, cached = 0,
           other = 0;
    for (const std::string &r : responses) {
        if (!quiet)
            std::printf("%s\n", r.c_str());
        std::string status = responseStatus(r);
        if (status == "ok")
            ++ok;
        else if (status == "shed")
            ++shed;
        else if (status == "timeout")
            ++timeout;
        else if (status == "error")
            ++error;
        else
            ++other;
        if (r.find("\"cached\":true") != std::string::npos)
            ++cached;
    }
    if (summary) {
        std::printf("summary: sent=%zu ok=%zu shed=%zu timeout=%zu "
                    "error=%zu other=%zu cached=%zu conn_failures=%d\n",
                    requests.size(), ok, shed, timeout, error, other,
                    cached, failures.load());
    }
    return failures.load() == 0 && other == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    bool stdio = false;
    bool summary = false;
    bool quiet = false;
    const char *socket_path = nullptr;
    const char *connect_path = nullptr;
    const char *replay_file = nullptr;
    int concurrency = 1;
    ServerOptions opts;

    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strcmp(a, "--stdio") == 0)
            stdio = true;
        else if (std::strncmp(a, "--socket=", 9) == 0)
            socket_path = a + 9;
        else if (std::strncmp(a, "--connect=", 10) == 0)
            connect_path = a + 10;
        else if (std::strncmp(a, "--replay=", 9) == 0)
            replay_file = a + 9;
        else if (std::strncmp(a, "--concurrency=", 14) == 0)
            concurrency = std::atoi(a + 14);
        else if (std::strcmp(a, "--summary") == 0)
            summary = true;
        else if (std::strcmp(a, "--quiet") == 0)
            quiet = true;
        else if (std::strncmp(a, "--cache-cap=", 12) == 0)
            opts.cacheCapacity =
                static_cast<size_t>(std::atoll(a + 12));
        else if (std::strncmp(a, "--max-inflight=", 15) == 0)
            opts.maxInFlight = std::atoi(a + 15);
        else if (std::strncmp(a, "--timeout-ms=", 13) == 0)
            opts.defaultTimeoutMs = std::atoi(a + 13);
        else if (std::strcmp(a, "--no-backend") == 0)
            opts.runBackend = false;
        else {
            std::fprintf(stderr, "unknown flag %s\n", a);
            return 1;
        }
    }

    if (connect_path)
        return runClient(connect_path, replay_file, concurrency,
                         summary, quiet);

    CompileServer server(opts);
    if (socket_path)
        return runSocketDaemon(server, socket_path);
    if (stdio)
        return runStdio(server);

    std::fprintf(stderr,
                 "usage: chf_serve --stdio | --socket=PATH "
                 "[server flags]\n"
                 "       chf_serve --connect=PATH [--replay=FILE] "
                 "[--concurrency=N] [--summary] [--quiet]\n");
    return 1;
}
