#!/bin/sh
# Sanitized differential-fuzz shards: build the fuzz harness under
# AddressSanitizer and ThreadSanitizer and run one short generated-
# program campaign under each. ASan catches memory bugs the functional
# oracle can't see (a transform reading freed blocks can still emit
# correct code); TSan covers the multi-threaded matrix cells (4-worker
# sessions). Long unsanitized campaigns
# run via build/examples/fuzz_differential; see docs/testing.md.
#
# Usage: scripts/check_fuzz.sh [count] [first-seed]
#   count       programs per shard      (default 12)
#   first-seed  seed of the first one   (default 1; TSan shard uses
#                                        first-seed + count so the two
#                                        shards cover different programs)
set -eu

cd "$(dirname "$0")/.."
COUNT="${1:-12}"
FIRST_SEED="${2:-1}"
JOBS="$(nproc 2>/dev/null || echo 4)"

run_shard() {
    SANITIZER="$1"
    BUILD_DIR="$2"
    SEED="$3"
    cmake -B "$BUILD_DIR" -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCHF_SANITIZE="$SANITIZER"
    cmake --build "$BUILD_DIR" -j "$JOBS" --target fuzz_differential
    # Smoke matrix: every axis (threads, fault injection, cold vs warm
    # failed-trial memo) is exercised without the full 16-cell cross
    # product, which under a sanitizer would take minutes per program.
    "$BUILD_DIR/examples/fuzz_differential" \
        --smoke --count="$COUNT" --seed="$SEED" --quiet
    echo "check_fuzz: $SANITIZER shard clean ($COUNT programs from seed $SEED)"
}

run_shard address build-asan "$FIRST_SEED"
run_shard thread build-tsan "$((FIRST_SEED + COUNT))"
echo "check_fuzz: both sanitized shards clean"
