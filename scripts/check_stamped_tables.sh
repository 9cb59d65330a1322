#!/bin/sh
# Stamped-table gate: a per-block table keyed by register resets in
# O(1) through StampedTable (src/support/stamped_table.h), which holds
# the only generation counter and the only wraparound flush under src/.
# A file that increments its own counter and tests it for wraparound
# (`if (++epoch == 0)`) fails the check, so a hand-rolled copy of the
# table cannot land unnoticed. Wired into ctest as `stamped_tables`
# (label "lint", tests/CMakeLists.txt).
#
# Usage: scripts/check_stamped_tables.sh [REPO_ROOT]
set -eu

ROOT="${1:-$(dirname "$0")/..}"
SRC="$ROOT/src"
if [ ! -d "$SRC" ]; then
    echo "check_stamped_tables: no src/ under $ROOT" >&2
    exit 1
fi

BAD="$(grep -rnE '\+\+ *[A-Za-z_][A-Za-z0-9_.>-]* *== *0[uU]?\b' "$SRC" |
       grep -v '^[^:]*/support/stamped_table\.h:' || true)"
if [ -n "$BAD" ]; then
    echo "check_stamped_tables: src/ hand-rolls a generation counter;" \
         "use StampedTable (support/stamped_table.h):" >&2
    echo "$BAD" >&2
    exit 1
fi
echo "check_stamped_tables: only support/stamped_table.h keeps a" \
     "generation counter"
