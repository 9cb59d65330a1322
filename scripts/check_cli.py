#!/usr/bin/env python3
"""CLI smoke: tinyc_compiler and the chf_serve daemon compile alike.

Both tools hand a lowered program to one chf::Session unit, which
prepares and compiles it (DESIGN.md section 9). This check runs
`tinyc_compiler --asm` on three generated programs and on one TinyC
file it writes, each strict and with --keep-going, and asserts:

  - the assembly equals the "asm" that `chf_serve --stdio` returns for
    the same request with emit_asm;
  - every run prints "semantics preserved  yes";
  - `--keep-going --fault=phase:unroll,fn:0,kind:throw` rolls back
    prepare's for-loop unroll: the run prints "degraded phases
    unroll", exits 0, and matches the daemon's asm and failed phases
    for the same faulted request;
  - both tools refuse too few program arguments for `main` with the
    same message ("args wants 2 integers, got 1"; the CLI exits 1),
    and the CLI takes program arguments as whole integers only, so
    "+3" prints the usage and exits 1.

Wired into ctest as cli_smoke (label "server").

Usage: scripts/check_cli.py TINYC_COMPILER CHF_SERVE
"""

import json
import os
import subprocess
import sys
import tempfile

TIMEOUT_S = 60

GEN_SPECS = ["seed:3,shape:bench", "seed:7,shape:switchy",
             "seed:11,shape:irreducible"]

# A for-loop (prepare unrolls it), a while-loop and nested ifs, so
# formation merges, unrolls and peels.
SOURCE = """int data[64];
int main(int n) {
  int acc = 0;
  for (int i = 0; i < 8; i += 1) {
    data[i] = i * 3 + n;
  }
  int j = 0;
  while (j < n) {
    int t = data[j % 8];
    if ((t & 1) == 1) { acc += t * 3; } else { acc -= t; }
    if (acc > 1000) { acc = acc % 97; }
    j += 1;
  }
  return acc;
}
"""
SOURCE_ARGS = [40]

UNROLL_FAULT = "phase:unroll,fn:0,kind:throw"

# main takes two parameters; the refusal cases pass one argument.
TWO_PARAMS = """int main(int a, int b) {
  return a * 10 + b;
}
"""
TOO_FEW = "args wants 2 integers, got 1"


def fail(message):
    sys.stderr.write("check_cli: FAIL: %s\n" % message)
    sys.exit(1)


def run_cli(cli, flags, what):
    """Run tinyc_compiler; (asm, stdout). --asm output precedes "result"."""
    proc = subprocess.run([cli, "--asm"] + flags, capture_output=True,
                          text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        fail("%s: tinyc_compiler exited %d\n%s"
             % (what, proc.returncode, proc.stderr))
    head, sep, _ = proc.stdout.partition("\nresult ")
    if not sep:
        fail("%s: no result line in\n%s" % (what, proc.stdout))
    if "semantics preserved  yes" not in proc.stdout:
        fail("%s: semantics not preserved\n%s" % (what, proc.stdout))
    return head, proc.stdout


def run_refused(cli, args, want, what):
    """Run tinyc_compiler on arguments it must refuse: exit 1, and
    @p want on stderr."""
    proc = subprocess.run([cli] + args, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    if proc.returncode != 1 or want not in proc.stderr:
        fail("%s: want exit 1 and %r on stderr, got exit %d\n%s"
             % (what, want, proc.returncode, proc.stderr))


def serve(serve_bin, requests):
    """One chf_serve --stdio run; one parsed response per request."""
    lines = "".join(json.dumps(r) + "\n" for r in requests)
    proc = subprocess.run([serve_bin, "--stdio"], input=lines,
                          capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    if proc.returncode != 0:
        fail("chf_serve exited %d\n%s" % (proc.returncode, proc.stderr))
    responses = [json.loads(line) for line in proc.stdout.splitlines()]
    if len(responses) != len(requests):
        fail("chf_serve answered %d of %d requests"
             % (len(responses), len(requests)))
    return responses


def main():
    if len(sys.argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    cli, serve_bin = sys.argv[1], sys.argv[2]

    with tempfile.TemporaryDirectory() as work:
        source_path = os.path.join(work, "loops.tc")
        with open(source_path, "w") as f:
            f.write(SOURCE)

        # (label, CLI flags, request fields) per input and mode.
        cases = []
        for keep_going in (False, True):
            mode = ["--keep-going"] if keep_going else []
            for spec in GEN_SPECS:
                cases.append(("gen %s%s" % (spec, " keep-going" * keep_going),
                              mode + ["--gen=" + spec],
                              {"gen": spec, "keep_going": keep_going}))
            cases.append(("loops.tc%s" % (" keep-going" * keep_going),
                          mode + [source_path]
                          + [str(a) for a in SOURCE_ARGS],
                          {"source": SOURCE, "args": SOURCE_ARGS,
                           "keep_going": keep_going}))
        cases.append(("loops.tc keep-going " + UNROLL_FAULT,
                      ["--keep-going", "--fault=" + UNROLL_FAULT,
                       source_path] + [str(a) for a in SOURCE_ARGS],
                      {"source": SOURCE, "args": SOURCE_ARGS,
                       "keep_going": True, "fault": UNROLL_FAULT}))

        responses = serve(serve_bin,
                          [dict(op="compile", emit_asm=True, **fields)
                           for _, _, fields in cases])
        for (what, flags, fields), response in zip(cases, responses):
            asm, stdout = run_cli(cli, flags, what)
            if response.get("status") != "ok":
                fail("%s: daemon answered %s" % (what, response))
            if response.get("asm") != asm:
                fail("%s: tinyc_compiler --asm differs from the daemon's "
                     "asm" % what)
            if "fault" in fields:
                if "degraded phases      unroll\n" not in stdout:
                    fail("%s: no 'degraded phases      unroll' line\n%s"
                         % (what, stdout))
                if response.get("failed_phases") != ["unroll"]:
                    fail("%s: daemon failed_phases %s"
                         % (what, response.get("failed_phases")))

        # Too few program arguments: the daemon and the CLI refuse
        # alike, and the CLI takes no "+3".
        two_path = os.path.join(work, "two.tc")
        with open(two_path, "w") as f:
            f.write(TWO_PARAMS)
        response = serve(serve_bin, [{"op": "compile", "source": TWO_PARAMS,
                                      "args": [3]}])[0]
        if response.get("status") != "error" or \
                response.get("message") != TOO_FEW:
            fail("two.tc 3: daemon answered %s" % response)
        run_refused(cli, [two_path, "3"], TOO_FEW, "two.tc 3")
        run_refused(cli, [two_path, "+3", "4"], "usage:", "two.tc +3 4")
        run_cli(cli, [two_path, "3", "-4"], "two.tc 3 -4")

    print("check_cli: %d tinyc_compiler runs match chf_serve, and both "
          "refuse too few arguments" % len(cases))
    return 0


if __name__ == "__main__":
    sys.exit(main())
