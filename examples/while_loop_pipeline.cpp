/**
 * @file
 * The paper's Figure 1 scenario: an outer loop with two inner *while*
 * loops that typically iterate three times. For-loop unrolling cannot
 * help (the trip counts are data dependent), so only head duplication
 * -- peeling and unrolling integrated with if-conversion -- can build
 * large hyperblocks. This example walks the CFG through each pipeline
 * and reports how head duplication changes the outcome.
 *
 * Run: ./while_loop_pipeline
 */

#include <cstdio>

#include "ir/printer.h"
#include "pipeline/session.h"
#include "sim/functional_sim.h"
#include "sim/timing_sim.h"

using namespace chf;

int
main()
{
    // Figure 1's CFG shape: A; loop { CD while-loop; E; FG while-loop;
    // H } I -- each inner while loop typically runs ~3 iterations.
    const char *source = R"(
int trips[512];
int work[512];
int main() {
  int seed = 19;
  for (int i = 0; i < 512; i += 1) {
    seed = (seed * 1103515245 + 12345) % 8192;
    trips[i] = 2 + seed % 3;            // typically ~3
    work[i] = seed % 100;
  }
  int acc = 0;
  for (int outer = 0; outer < 512; outer += 1) {   // block A/B
    int j = 0;
    while (j < trips[outer]) {                     // blocks C,D
      acc += work[outer] + j;
      j += 1;
    }
    acc = acc % 100003;                            // block E
    int k = 0;
    while (k < trips[(outer + 7) % 512]) {         // blocks F,G
      acc += (work[outer] * k) % 17;
      k += 1;
    }
  }
  return acc;                                      // block I
}
)";

    Program base = Session::frontend(source);
    ProfileData profile = prepareProgram(base);

    std::printf("Figure 1 scenario: while loops with ~3 mean trips\n");
    std::printf("baseline CFG (%zu blocks):\n%s\n", base.fn.numBlocks(),
                cfgToString(base.fn).c_str());

    FuncSimResult oracle = runFunctional(base);
    TimingResult bb_cycles = runTiming(base);

    const std::pair<const char *, Pipeline> configs[] = {
        {"UPIO   (unroll/peel before if-conversion)", Pipeline::UPIO},
        {"IUPO   (if-convert, then discrete unroll/peel)",
         Pipeline::IUPO},
        {"(IUP)O (convergent, scalar opts at the end)",
         Pipeline::IUP_O},
        {"(IUPO) (fully convergent, Figure 1d)", Pipeline::IUPO_fused},
    };

    // One session unit per pipeline, compiled as a batch.
    Session session;
    for (const auto &[label, pipeline] : configs) {
        session.addProgram(base.clone(), profile, label,
                           SessionOptions().withPipeline(pipeline));
    }
    SessionResult compiled = session.compile();

    for (size_t unit = 0; unit < session.size(); ++unit) {
        const char *label = configs[unit].first;
        const Program &program = session.program(unit);
        const FunctionResult &result = compiled.functions[unit];

        FuncSimResult run = runFunctional(program);
        TimingResult cycles = runTiming(program);
        if (run.returnValue != oracle.returnValue) {
            std::printf("BUG: %s changed the result!\n", label);
            return 1;
        }

        std::printf("%-48s blocks %3zu  merges %3lld  u/p %lld/%lld  "
                    "cycles %+6.1f%%\n",
                    label, program.fn.numBlocks(),
                    static_cast<long long>(
                        result.stats.get("blocksMerged")),
                    static_cast<long long>(
                        result.stats.get("unrolledIterations")),
                    static_cast<long long>(
                        result.stats.get("peeledIterations")),
                    100.0 *
                        (static_cast<double>(bb_cycles.cycles) -
                         static_cast<double>(cycles.cycles)) /
                        static_cast<double>(bb_cycles.cycles));
    }

    std::printf("\nHead duplication (the u/p columns) is what lets the "
                "convergent pipelines fold the low-trip while loops "
                "into their surrounding hyperblocks, as in Figure 1d "
                "of the paper.\n");
    return 0;
}
