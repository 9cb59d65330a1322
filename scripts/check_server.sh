#!/bin/sh
# End-to-end smoke for the compile daemon (docs/operations.md): boot
# examples/chf_serve on a unix socket and assert the operational
# contracts — a 500-request replay with zero crashes and a >= 90%
# cache hit rate, a stalled request cut off by its time budget
# (status "timeout"), and an over-capacity burst refused with status
# "shed" instead of queued.
#
# Usage: scripts/check_server.sh [path-to-chf_serve]
# Default binary: build/examples/chf_serve. Wired into ctest as the
# server_smoke test (label "server").
set -eu

cd "$(dirname "$0")/.."
SERVE="${1:-build/examples/chf_serve}"
[ -x "$SERVE" ] || {
    echo "check_server: $SERVE not built (cmake --build build --target chf_serve)" >&2
    exit 1
}

WORK="$(mktemp -d)"
SOCK="$WORK/chf.sock"
DAEMON_PID=""
cleanup() {
    [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

fail() {
    echo "check_server: FAIL: $*" >&2
    exit 1
}

get() { echo "$SUMMARY" | tr ' ' '\n' | sed -n "s/^$1=//p"; }

# A single in-flight slot makes the over-capacity burst deterministic:
# while one compile holds it, every concurrent compile sheds.
"$SERVE" --socket="$SOCK" --max-inflight=1 &
DAEMON_PID=$!

for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && break
    sleep 0.05
done
[ -S "$SOCK" ] || fail "daemon did not create $SOCK"

# --- campaign 1: the 500-request replay (ISSUE acceptance) ----------
# 25 distinct generated programs, each requested 20 times. Replayed
# sequentially first (one connection cannot shed against itself, so
# the counts are exact: 25 compiles + 475 hits = 95% hit rate), then
# the same 500 lines over 4 concurrent connections, where every
# request must hit the now-warm cache without touching the slot.
REPLAY="$WORK/replay.ndjson"
: > "$REPLAY"
for round in $(seq 1 20); do
    for seed in $(seq 1 25); do
        printf '{"op":"compile","gen":"seed:%d,shape:bench"}\n' "$seed"
    done
done >> "$REPLAY"
[ "$(wc -l < "$REPLAY")" -eq 500 ] || fail "replay file is not 500 lines"

SUMMARY="$("$SERVE" --connect="$SOCK" --replay="$REPLAY" \
                    --concurrency=1 --summary --quiet)" \
    || fail "sequential replay client exited nonzero: $SUMMARY"
echo "sequential: $SUMMARY"
[ "$(get sent)" = "500" ] || fail "client sent $(get sent)/500"
[ "$(get conn_failures)" = "0" ] || fail "connection failures (daemon crash?)"
[ "$(get error)" = "0" ] || fail "$(get error) error responses"
[ "$(get other)" = "0" ] || fail "$(get other) unrecognized responses"
[ "$(get shed)" = "0" ] || fail "a single connection managed to shed itself"
[ "$(get cached)" = "475" ] || fail "expected 475/500 cache hits, got $(get cached)"

SUMMARY="$("$SERVE" --connect="$SOCK" --replay="$REPLAY" \
                    --concurrency=4 --summary --quiet)" \
    || fail "concurrent replay client exited nonzero: $SUMMARY"
echo "concurrent: $SUMMARY"
[ "$(get conn_failures)" = "0" ] || fail "connection failures under concurrency"
[ "$(get cached)" = "500" ] || fail "warm concurrent replay missed the cache: $(get cached)/500"

# --- campaigns 2+3: stall -> timeout, and shedding under its shadow -
# The stalled request (uncontended, so it cannot be shed) pins the
# only slot for its full 5s budget; the burst of uncached compiles
# fired under it must all be refused with "shed".
STALL="$WORK/stall.ndjson"
printf '%s\n' \
    '{"id":"stalled","op":"compile","gen":"seed:99,shape:bench","timeout_ms":5000,"fault":"phase:formation,fn:0,kind:stall:60000"}' \
    > "$STALL"
START=$(date +%s)
"$SERVE" --connect="$SOCK" --replay="$STALL" --summary > "$WORK/stall.out" 2>&1 &
STALL_PID=$!
sleep 1 # let the stalled compile claim the slot before the burst races it

BURST="$WORK/burst.ndjson"
: > "$BURST"
for seed in $(seq 1000 1031); do
    printf '{"op":"compile","gen":"seed:%d,shape:bench"}\n' "$seed"
done >> "$BURST"
SUMMARY="$("$SERVE" --connect="$SOCK" --replay="$BURST" \
                    --concurrency=8 --summary --quiet)" \
    || fail "burst client exited nonzero: $SUMMARY"
echo "burst: $SUMMARY"
[ "$(get conn_failures)" = "0" ] || fail "connection failures in burst"
[ "$(get shed)" -gt 0 ] || fail "over-capacity burst was never shed"

wait "$STALL_PID" || fail "stall client exited nonzero: $(cat "$WORK/stall.out")"
ELAPSED=$(( $(date +%s) - START ))
grep -q '"status":"timeout"' "$WORK/stall.out" \
    || fail "stalled request did not report a timeout: $(cat "$WORK/stall.out")"
[ "$ELAPSED" -lt 30 ] || fail "timeout took ${ELAPSED}s (watchdog dead?)"

# The daemon must still be alive and serving after all three.
kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died during the run"
PING="$WORK/ping.ndjson"
printf '{"op":"health"}\n{"op":"stats"}\n' > "$PING"
"$SERVE" --connect="$SOCK" --replay="$PING" --quiet --summary \
    | grep -q 'conn_failures=0' || fail "daemon unresponsive after campaigns"

echo "check_server: 500-request replay survived (475 sequential + 500" \
     "concurrent cache hits), stall timed out in ${ELAPSED}s," \
     "burst shed $(get shed)/32"
