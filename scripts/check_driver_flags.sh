#!/bin/sh
# Driver flag gate: a malformed numeric flag or program argument must
# print the usage line and exit 1, never run with a silently parsed
# value (a bad --count that fuzzes nothing and passes, --threads=2x
# running 2 threads). Each tool parses its integers whole, with
# parseInteger/parseAtLeast (src/support/parse_int.h), the way
# chf_serve does (scripts/check_server.sh checks its flags). A valid
# one-program fuzz campaign must still pass, so a tool that refuses
# everything fails too. Wired into ctest as `driver_flags` (label
# "lint", tests/CMakeLists.txt).
#
# Usage: scripts/check_driver_flags.sh FUZZ_DIFFERENTIAL POLICY_EXPLORER \
#            TINYC_COMPILER TABLE_BENCH...
set -eu

if [ "$#" -lt 4 ]; then
    sed -n '2,13p' "$0" >&2
    exit 2
fi
FUZZ="$1"
EXPLORER="$2"
CLI="$3"
shift 3

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT INT TERM

fail() {
    echo "check_driver_flags: FAIL: $*" >&2
    exit 1
}

# stdin is empty and stdout is discarded: a tool that wrongly started
# just runs to its end, and then exits 0.
bad_flag() {
    status=0
    "$@" < /dev/null > /dev/null 2> "$WORK/err" || status=$?
    [ "$status" = 1 ] || fail "$* exited $status, want 1"
    grep -q '^usage:' "$WORK/err" || fail "$* printed no usage line"
}

# --count and --seed ride with a one-program campaign, so the checks
# stay short if a value were accepted.
for flag in --count=abc --count=-5 --count=0 --count=3x; do
    bad_flag "$FUZZ" --smoke --quiet "$flag"
done
for flag in --seed=xyz --seed=-1 --seed=7x; do
    bad_flag "$FUZZ" --smoke --quiet --count=1 "$flag"
done
for flag in --threads=2x --threads=0 --threads=abc; do
    bad_flag "$EXPLORER" "$flag"
done
for bench in "$@"; do
    bad_flag "$bench" --threads=2x
    bad_flag "$bench" --threads=0
done
# Program arguments are whole integers, as chf_serve's "args" are.
bad_flag "$CLI" --gen=seed:1,shape:bench +3
bad_flag "$CLI" --gen=seed:1,shape:bench 3x

"$FUZZ" --smoke --quiet --count=1 --seed=5 > /dev/null 2> "$WORK/err" ||
    fail "a valid one-program campaign failed: $(cat "$WORK/err")"
echo "check_driver_flags: every malformed flag printed the usage and exited 1"
