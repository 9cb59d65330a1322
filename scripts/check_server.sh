#!/bin/sh
# End-to-end smoke for the compile daemon (docs/operations.md): boot
# examples/chf_serve on a unix socket and assert the operational
# contracts — a 500-request replay with zero crashes and a >= 90%
# cache hit rate, a stalled request cut off by its time budget
# (status "timeout"), an over-capacity burst refused with status
# "shed" instead of queued, and hostile clients (hang-ups before the
# response, an unterminated oversized line) that cost only their own
# connection. First, every malformed or out-of-range numeric flag must
# print the usage and exit 1.
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

# --- flag validation ------------------------------------------------
# stdin is empty, so a mode that wrongly started would just see EOF.
bad_flag() {
    status=0
    "$SERVE" "$@" < /dev/null > /dev/null 2> "$WORK/flag.err" || status=$?
    [ "$status" = 1 ] || fail "chf_serve $* exited $status, want 1"
    grep -q '^usage:' "$WORK/flag.err" || fail "chf_serve $* printed no usage"
}
for flag in --max-inflight=abc --max-inflight=0 --max-inflight=-1 \
            --cache-cap=-1 --cache-cap=abc --cache-cap=8x \
            --timeout-ms=-5 --timeout-ms=1e3; do
    bad_flag --stdio "$flag"
done
for flag in --concurrency=0 --concurrency=abc; do
    bad_flag --connect="$SOCK" "$flag"
done

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
[ "$ELAPSED" -lt 30 ] || fail "timeout took ${ELAPSED}s (time budget not enforced?)"

# The daemon must still be alive and answer health on a new connection.
PING="$WORK/ping.ndjson"
printf '{"op":"health"}\n{"op":"stats"}\n' > "$PING"
alive() {
    kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died $1"
    "$SERVE" --connect="$SOCK" --replay="$PING" --quiet --summary \
        | grep -q 'conn_failures=0' || fail "daemon unresponsive $1"
}
alive "during the campaigns"

# --- campaign 4: hostile clients ------------------------------------
# python3 clients, since the replay client would itself take SIGPIPE.
# Three clients send an uncached compile and hang up before the
# response: the daemon's write then fails, and only that connection
# may close.
for seed in 2001 2002 2003; do
    python3 -c '
import socket, sys
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
s.sendall(b"{\"op\":\"compile\",\"gen\":\"seed:%s,shape:bench\"}\n"
          % sys.argv[2].encode())
s.close()
' "$SOCK" "$seed" || fail "hang-up client $seed could not connect (daemon dead?)"
done
sleep 1 # let the three compiles finish and write to closed sockets
alive "after clients hung up before their responses"

# An unterminated 2 MiB line must get one status:"error" line before
# the client's socket timeout, and then the connection closes.
OVERSIZED="$(python3 -c '
import socket, sys
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.settimeout(10)
s.connect(sys.argv[1])
try:
    s.sendall(b"x" * (2 << 20))
except OSError:
    pass  # the daemon stops reading at its line cap
reply = b""
try:
    while True:
        chunk = s.recv(4096)
        if not chunk:
            break
        reply += chunk
except OSError:
    pass
sys.stdout.write(reply.decode("ascii", "replace"))
' "$SOCK")"
echo "oversized: $OVERSIZED"
[ "$(printf '%s' "$OVERSIZED" | grep -c '"status":"error"')" = "1" ] \
    || fail "oversized line did not get one error line: $OVERSIZED"
alive "after an oversized line"

echo "check_server: 500-request replay survived (475 sequential + 500" \
     "concurrent cache hits), stall timed out in ${ELAPSED}s," \
     "burst shed $(get shed)/32, 3 hang-ups and a 2 MiB line survived"
