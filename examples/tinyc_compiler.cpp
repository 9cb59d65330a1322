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
 *                  "trips")
 *   --gen=SPEC     compile a generated program instead of a file:
 *                  SPEC is the generator spec a fuzz failure prints
 *                  (seed:S,funcs:N,shape:X,...; see docs/testing.md)
 *   --source       with --gen, print the generated TinyC source
 *
 * To compile through a running chf_serve daemon instead, use
 * `chf_serve --connect=SOCK` (docs/operations.md).
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "backend/asm_writer.h"
#include "ir/printer.h"
#include "pipeline/session.h"
#include "sim/functional_sim.h"
#include "sim/timing_sim.h"
#include "support/fault_inject.h"
#include "support/parse_int.h"
#include "workloads/generator.h"

using namespace chf;

int
main(int argc, char **argv)
{
    bool dump = false;
    bool emit_asm = false;
    bool keep_going = false;
    bool print_source = false;
    std::string gen_spec;
    std::string fault_spec;
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
        } else {
            break;
        }
        ++argi;
    }
    auto usage = [&] {
        std::fprintf(stderr,
                     "usage: %s [--dump] [--asm] [--keep-going] "
                     "[--fault=SPEC] [--target=NAME] "
                     "program.tc [int args...]\n"
                     "       %s [flags] --gen=seed:S,shape:X[,...] "
                     "[int args...]\n",
                     argv[0], argv[0]);
        return 1;
    };
    if (argi >= argc && gen_spec.empty())
        return usage();

    // Program arguments follow the source file (or all of argv with
    // --gen), each a whole base-10 integer, as chf_serve takes them.
    std::vector<int64_t> args;
    for (int i = gen_spec.empty() ? argi + 1 : argi; i < argc; ++i) {
        int64_t value = 0;
        if (!parseInteger(argv[i], &value))
            return usage();
        args.push_back(value);
    }

    const TargetModel *target = findTarget(target_name);
    if (!target) {
        std::fprintf(stderr, "unknown target %s (known targets: %s)\n",
                     target_name.c_str(), targetNamesJoined().c_str());
        return 1;
    }

    std::optional<FaultSpec> spec;
    if (!fault_spec.empty()) {
        spec.emplace();
        std::string err;
        if (!parseFaultSpec(fault_spec, &*spec, &err)) {
            std::fprintf(stderr, "bad --fault spec: %s\n", err.c_str());
            return 1;
        }
    }

    Program program;
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
    } else {
        std::ifstream in(argv[argi]);
        if (!in) {
            std::fprintf(stderr, "cannot open %s\n", argv[argi]);
            return 1;
        }
        std::stringstream buffer;
        buffer << in.rdbuf();

        if (keep_going) {
            DiagnosticEngine diags;
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
    }
    if (!args.empty()) {
        // Profiling binds one argument per parameter of main.
        if (args.size() < program.fn.argRegs.size()) {
            std::fprintf(stderr, "args wants %zu integers, got %zu\n",
                         program.fn.argRegs.size(), args.size());
            return 1;
        }
        program.defaultArgs = args; // override the reference vector
    }

    // Unit 0 is the compile, so fn:0 names it. Unit 1 is the paper's
    // basic-block baseline the simulators compare against: the same
    // program, prepared and left unformed.
    SessionOptions options = SessionOptions()
                                 .withPipeline(Pipeline::IUPO_fused)
                                 .withTarget(*target)
                                 .withKeepGoing(keep_going);
    if (spec)
        options.withFault(*spec);
    Session session(options);
    session.addLowered(program.clone());
    session.addLowered(std::move(program), "baseline",
                       SessionOptions(options)
                           .withPipeline(Pipeline::BB)
                           .withBackend(false));
    SessionResult result = session.compile();
    const FunctionResult &compiled = result.functions[0];
    const Program &out = session.program(0);
    const Program &bb = session.program(1);

    if (dump)
        std::printf("%s\n", toString(out.fn).c_str());
    if (emit_asm)
        std::printf("%s\n", writeFunctionAsm(out.fn).c_str());

    FuncSimResult baseline = runFunctional(bb);
    TimingResult bb_timing = runTiming(bb);
    FuncSimResult run = runFunctional(out);
    TimingResult timing = runTiming(out);

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
                out.fn.numBlocks(),
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
        if (!result.diagnostics.empty())
            result.diagnostics.print(stderr);
    }
    return 0;
}
