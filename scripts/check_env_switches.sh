#!/bin/sh
# Environment-variable gate: the library under src/ may read exactly
# one environment variable, CHF_TRACE_MERGES (formation trace). Any
# other getenv/secure_getenv call, any read of `environ`, or a getenv
# whose argument is not that string literal fails the check, so a new
# CHF_* kill switch cannot land unnoticed. Wired into ctest as
# `env_switches` (label "lint", tests/CMakeLists.txt).
#
# Usage: scripts/check_env_switches.sh [REPO_ROOT]
set -eu

ROOT="${1:-$(dirname "$0")/..}"
SRC="$ROOT/src"
if [ ! -d "$SRC" ]; then
    echo "check_env_switches: no src/ under $ROOT" >&2
    exit 1
fi

# One output line per read (-o), so an allowed read cannot hide a
# second one on the same source line.
BAD="$(grep -rnoE '\b(secure_)?getenv\b *(\([^)]*\)?)?|\benviron\b' "$SRC" |
       grep -vE ':(secure_)?getenv\("CHF_TRACE_MERGES"\)$' || true)"
if [ -n "$BAD" ]; then
    echo "check_env_switches: src/ reads an environment variable other" \
         "than CHF_TRACE_MERGES:" >&2
    echo "$BAD" >&2
    exit 1
fi
echo "check_env_switches: src/ reads only CHF_TRACE_MERGES"
