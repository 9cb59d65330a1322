#!/bin/sh
# Race gate for the parallel session: build with ThreadSanitizer
# (CHF_SANITIZE=thread instruments the whole library — Session workers
# run the full per-unit pipeline concurrently, see DESIGN.md §9) and
# run every ctest labeled "parallel" or "fuzz": the session
# determinism gate, the time-budget gate (timed-out units among
# 4-worker batches), the formation references (cold vs warm trial memo,
# whose clearTrialMemo touches the shared store), and the
# generated-program differential fuzz smoke (whose matrix includes
# 4-worker sessions).
#
# Usage: scripts/check_tsan.sh [build-dir]   (default: build-tsan)
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCHF_SANITIZE=thread
cmake --build "$BUILD_DIR" -j "$(nproc 2>/dev/null || echo 4)"

# halt_on_error: a single race fails the gate immediately instead of
# scrolling past in a long test log.
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    ctest --test-dir "$BUILD_DIR" -L 'parallel|fuzz' \
    --output-on-failure
echo "check_tsan: ctest -L 'parallel|fuzz' clean under ThreadSanitizer"
