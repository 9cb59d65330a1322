/**
 * @file
 * A command-line TinyC compiler driver: compiles a source file through
 * the full pipeline (front end, profiling, convergent hyperblock
 * formation, backend) via chf::Session and executes it on both
 * simulators. Useful for experimenting with the compiler on your own
 * kernels.
 *
 * Run: ./tinyc_compiler path/to/program.tc [args...]
 *      ./tinyc_compiler --dump path/to/program.tc    (print final IR)
 *      ./tinyc_compiler --gen=seed:7,shape:switchy   (generated input)
 *
 * Robustness flags:
 *   --keep-going   transactional pipeline: a phase that fails
 *                  verification is rolled back and skipped instead of
 *                  aborting; diagnostics are printed at the end
 *   --fault=SPEC   arm the deterministic fault injector, e.g.
 *                  --fault=phase:formation,fn:0,kind:corrupt-ir
 *   --target=NAME  compile for a registry target model ("trips",
 *                  "trips-wide", "small-block", "deep-lsq"; default
 *                  "trips"). Forwarded in the request in --server
 *                  mode, where it participates in the server's
 *                  compile-cache key.
 *   --gen=SPEC     compile a generated program instead of a file:
 *                  SPEC is the generator spec a fuzz failure prints
 *                  (seed:S,funcs:N,shape:X,...; see docs/testing.md)
 *   --source       with --gen, print the generated TinyC source
 *   --server=SOCK  client mode: ship the compile to a running
 *                  chf_serve daemon on unix socket SOCK instead of
 *                  compiling in-process, and print the JSON response
 *                  (--keep-going, --fault, --asm and program args are
 *                  forwarded in the request; see docs/operations.md)
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "backend/asm_writer.h"
#include "ir/printer.h"
#include "pipeline/server.h"
#include "pipeline/session.h"
#include "sim/functional_sim.h"
#include "sim/timing_sim.h"
#include "support/fault_inject.h"
#include "workloads/generator.h"

using namespace chf;

namespace {

/**
 * Client mode: one request line to a chf_serve daemon, one response
 * line to stdout. Exit status reflects transport health, not compile
 * outcome — a "timeout" or "error" response is a successful round
 * trip the caller can inspect.
 */
int
runServerClient(const std::string &socket_path,
                const std::string &request)
{
    int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (fd < 0 || socket_path.size() >= sizeof addr.sun_path) {
        std::fprintf(stderr, "cannot reach %s\n", socket_path.c_str());
        return 1;
    }
    std::strcpy(addr.sun_path, socket_path.c_str());
    if (connect(fd, reinterpret_cast<sockaddr *>(&addr),
                sizeof addr) != 0) {
        std::perror("connect");
        close(fd);
        return 1;
    }
    std::string line = request + "\n";
    size_t off = 0;
    while (off < line.size()) {
        ssize_t n = write(fd, line.data() + off, line.size() - off);
        if (n <= 0) {
            std::perror("write");
            close(fd);
            return 1;
        }
        off += static_cast<size_t>(n);
    }
    std::string response;
    char chunk[4096];
    for (;;) {
        ssize_t n = read(fd, chunk, sizeof chunk);
        if (n <= 0)
            break;
        response.append(chunk, static_cast<size_t>(n));
        if (response.find('\n') != std::string::npos)
            break;
    }
    close(fd);
    size_t nl = response.find('\n');
    if (nl == std::string::npos) {
        std::fprintf(stderr, "no response from %s\n",
                     socket_path.c_str());
        return 1;
    }
    std::printf("%s\n", response.substr(0, nl).c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool dump = false;
    bool emit_asm = false;
    bool keep_going = false;
    bool print_source = false;
    std::string gen_spec;
    std::string fault_spec;
    std::string server_path;
    std::string target_name = "trips";
    int argi = 1;
    while (argi < argc && argv[argi][0] == '-') {
        if (std::strcmp(argv[argi], "--dump") == 0) {
            dump = true;
        } else if (std::strcmp(argv[argi], "--asm") == 0) {
            emit_asm = true;
        } else if (std::strcmp(argv[argi], "--keep-going") == 0) {
            keep_going = true;
        } else if (std::strcmp(argv[argi], "--source") == 0) {
            print_source = true;
        } else if (std::strncmp(argv[argi], "--gen=", 6) == 0) {
            gen_spec = argv[argi] + 6;
        } else if (std::strncmp(argv[argi], "--target=", 9) == 0) {
            target_name = argv[argi] + 9;
        } else if (std::strncmp(argv[argi], "--fault=", 8) == 0) {
            fault_spec = argv[argi] + 8;
        } else if (std::strncmp(argv[argi], "--server=", 9) == 0) {
            server_path = argv[argi] + 9;
        } else {
            break;
        }
        ++argi;
    }
    if (argi >= argc && gen_spec.empty()) {
        std::fprintf(stderr,
                     "usage: %s [--dump] [--asm] [--keep-going] "
                     "[--fault=SPEC] [--target=NAME] "
                     "program.tc [int args...]\n"
                     "       %s [flags] --gen=seed:S,shape:X[,...] "
                     "[int args...]\n",
                     argv[0], argv[0]);
        return 1;
    }

    if (!server_path.empty()) {
        std::ostringstream request;
        request << "{\"op\":\"compile\",";
        if (!gen_spec.empty()) {
            request << "\"gen\":" << jsonQuote(gen_spec);
        } else {
            std::ifstream in(argv[argi]);
            if (!in) {
                std::fprintf(stderr, "cannot open %s\n", argv[argi]);
                return 1;
            }
            std::stringstream buffer;
            buffer << in.rdbuf();
            request << "\"source\":" << jsonQuote(buffer.str());
            ++argi;
        }
        if (argi < argc) {
            request << ",\"args\":[";
            for (int i = argi; i < argc; ++i)
                request << (i > argi ? "," : "") << argv[i];
            request << "]";
        }
        request << ",\"keep_going\":"
                << (keep_going ? "true" : "false");
        if (target_name != "trips")
            request << ",\"target\":" << jsonQuote(target_name);
        if (emit_asm)
            request << ",\"emit_asm\":true";
        if (!fault_spec.empty())
            request << ",\"fault\":" << jsonQuote(fault_spec);
        request << "}";
        return runServerClient(server_path, request.str());
    }

    const TargetModel *target = findTarget(target_name);
    if (!target) {
        std::fprintf(stderr, "unknown target %s (known targets: %s)\n",
                     target_name.c_str(), targetNamesJoined().c_str());
        return 1;
    }

    if (!fault_spec.empty()) {
        FaultSpec spec;
        std::string err;
        if (!parseFaultSpec(fault_spec, &spec, &err)) {
            std::fprintf(stderr, "bad --fault spec: %s\n", err.c_str());
            return 1;
        }
        FaultInjector::instance().arm(spec);
    }

    DiagnosticEngine diags;
    Program program;
    std::vector<int64_t> args;
    if (!gen_spec.empty()) {
        uint64_t seed = 0;
        GeneratorShape shape;
        std::string err;
        if (!parseGenSpec(gen_spec, &seed, &shape, &err)) {
            std::fprintf(stderr, "bad --gen spec: %s\n", err.c_str());
            return 1;
        }
        GeneratedProgram generated = generateTinyC(seed, shape);
        if (print_source)
            std::fputs(generated.source.c_str(), stdout);
        // buildGenerated, not the source path: irreducible-edge
        // injection happens at the IR level after lowering.
        program = buildGenerated(generated);
        for (int i = argi; i < argc; ++i)
            args.push_back(std::atoll(argv[i]));
        if (!args.empty())
            program.defaultArgs = args; // override the reference vector
    } else {
        std::ifstream in(argv[argi]);
        if (!in) {
            std::fprintf(stderr, "cannot open %s\n", argv[argi]);
            return 1;
        }
        std::stringstream buffer;
        buffer << in.rdbuf();
        for (int i = argi + 1; i < argc; ++i)
            args.push_back(std::atoll(argv[i]));

        if (keep_going) {
            std::optional<Program> compiled_fe =
                Session::frontend(buffer.str(), diags);
            if (!compiled_fe) {
                diags.print(stderr);
                return 1;
            }
            program = std::move(*compiled_fe);
        } else {
            program = Session::frontend(buffer.str());
        }
        if (!args.empty())
            program.defaultArgs = args;
    }

    ProfileData profile = prepareProgram(
        program, {}, true, keep_going ? &diags : nullptr, keep_going);
    FuncSimResult baseline = runFunctional(program);
    TimingResult bb_timing = runTiming(program);

    Session session(SessionOptions()
                        .withPipeline(Pipeline::IUPO_fused)
                        .withTarget(*target)
                        .withKeepGoing(keep_going));
    session.addProgramRef(program, profile);
    SessionResult result = session.compile();
    FunctionResult &compiled = result.functions[0];
    diags.append(result.diagnostics);

    if (dump)
        std::printf("%s\n", toString(program.fn).c_str());
    if (emit_asm)
        std::printf("%s\n", writeFunctionAsm(program.fn).c_str());

    FuncSimResult run = runFunctional(program);
    TimingResult timing = runTiming(program);

    std::printf("result               %lld\n",
                static_cast<long long>(run.returnValue));
    // userHash, not memoryHash: residual spill-slot values are a
    // backend artifact the unoptimized baseline never produces.
    std::printf("semantics preserved  %s\n",
                run.returnValue == baseline.returnValue &&
                        run.memory.userHash() ==
                            baseline.memory.userHash()
                    ? "yes"
                    : "NO -- COMPILER BUG");
    std::printf("hyperblocks          %zu (from %zu basic blocks)\n",
                program.fn.numBlocks(),
                static_cast<size_t>(
                    compiled.stats.get("finalBlocks") +
                    compiled.stats.get("blocksMerged")));
    std::printf("formation            %s\n",
                compiled.stats.toString().c_str());
    std::printf("blocks executed      %llu -> %llu\n",
                static_cast<unsigned long long>(
                    baseline.blocksExecuted),
                static_cast<unsigned long long>(run.blocksExecuted));
    std::printf("cycles               %llu -> %llu (%+.1f%%)\n",
                static_cast<unsigned long long>(bb_timing.cycles),
                static_cast<unsigned long long>(timing.cycles),
                100.0 *
                    (static_cast<double>(bb_timing.cycles) -
                     static_cast<double>(timing.cycles)) /
                    static_cast<double>(bb_timing.cycles));
    std::printf("misprediction rate   %.2f%% -> %.2f%%\n",
                bb_timing.mispredictRate() * 100,
                timing.mispredictRate() * 100);

    if (keep_going) {
        if (compiled.degraded()) {
            std::printf("degraded phases      ");
            for (size_t i = 0; i < compiled.failedPhases.size(); ++i) {
                std::printf("%s%s", i ? ", " : "",
                            compiled.failedPhases[i].c_str());
            }
            std::printf("\n");
        }
        if (!diags.empty())
            diags.print(stderr);
    }
    return 0;
}
