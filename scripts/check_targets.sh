#!/bin/sh
# Memory-safety gate for the target-model subsystem: build with
# AddressSanitizer (CHF_SANITIZE=address instruments the whole library)
# and run every ctest labeled "target" — the target-determinism matrix
# over the registry (every model × thread count × cold/warm memo
# byte-identical, DESIGN.md §13), the TargetModel unit/legality tests,
# and the AutoTuner determinism and Pareto tests. Test timeouts come
# from chf_test_budget(), which picks the sanitized ceiling under
# CHF_SANITIZE builds.
#
# Usage: scripts/check_targets.sh [build-dir]   (default: build-asan)
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCHF_SANITIZE=address
cmake --build "$BUILD_DIR" -j "$(nproc 2>/dev/null || echo 4)"

# halt_on_error: the first report fails the gate immediately instead of
# scrolling past in a long test log.
ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1}" \
    ctest --test-dir "$BUILD_DIR" -L target --output-on-failure
echo "check_targets: ctest -L target clean under AddressSanitizer"
