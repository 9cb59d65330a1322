#!/bin/sh
# Paper-output gate: run one reproduction binary and diff its full
# stdout against a golden file recorded from a known-good build. Any
# byte difference fails and prints the unified diff. Wired into ctest
# as the paper_* tests (label "paper", bench/CMakeLists.txt).
#
# Usage: scripts/check_golden.sh GOLDEN BINARY [ARGS...]
# Re-record a golden only for an intended output change:
#   BINARY [ARGS...] > GOLDEN
set -eu

GOLDEN="$1"
shift
OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT INT TERM

"$@" > "$OUT"
if ! diff -u "$GOLDEN" "$OUT"; then
    echo "check_golden: $(basename "$1") output differs from $GOLDEN" >&2
    exit 1
fi
