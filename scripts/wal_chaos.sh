#!/usr/bin/env bash
# WAL crash-recovery chaos harness (DESIGN.md §12): SIGKILL the server
# mid-ingest, over and over, and prove two things every single cycle:
#
#   1. acked-implies-durable — every append the client saw an OK for is
#      present after recovery (policy "always"), and
#   2. recovery never fails — a torn tail from the kill is repaired, the
#      server reaches "listening on" again, no cycle is ever unrecoverable.
#
# The client keeps acked/sent counters in a state file across cycles and
# asserts acked <= COUNT <= sent after each restart (see
# wal_chaos_client.py for why the right-hand slack is legal).
#
# usage: wal_chaos.sh <path-to-streamhist_tool> [cycles]
set -u

TOOL="${1:?usage: wal_chaos.sh <path-to-streamhist_tool> [cycles]}"
CYCLES="${2:-25}"
CLIENT="$(dirname "$0")/wal_chaos_client.py"
WORK=$(mktemp -d)
# The client goes down with the server: a live client would still be
# writing its state file into $WORK while it is removed.
trap 'kill -9 "$SERVER" "$CLIENT_PID" 2>/dev/null; rm -rf "$WORK"' EXIT
WAL_DIR="$WORK/wal"
STATE="$WORK/state.json"
LOG="$WORK/serve.log"
SERVER=""
CLIENT_PID=""

fail() {
  echo "FAIL: $1"
  [ -f "$LOG" ] && cat "$LOG"
  exit 1
}

# Called when the client misses its recovery-check window: says whether the
# client is still alive and what the server answers on a fresh connection
# (WAL status and STATS, 2 s timeout), so a stuck client can be told from a
# stuck server. fail() then prints the server log.
diagnose_recovery_check() {
  if kill -0 "$CLIENT_PID" 2>/dev/null; then
    echo "client pid $CLIENT_PID is still running"
  else
    echo "client pid $CLIENT_PID has exited"
  fi
  echo "server reply to WAL + STATS on a fresh connection:"
  python3 - "$PORT" <<'PROBE'
import socket
import sys

data = b""
try:
    sock = socket.create_connection(("127.0.0.1", int(sys.argv[1])), timeout=2)
    sock.sendall(b"WAL\nSTATS\n")
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            break
        data += chunk
except socket.timeout:
    pass  # the server keeps the connection open: 2 s of silence ends it
except OSError as err:
    print(f"probe failed: {err}")
print(data.decode(errors="replace").rstrip() or "no reply")
PROBE
}

# Starts the server on an ephemeral port and waits for the machine-readable
# "LISTENING <port>" announcement. Retries ONCE, and only when the failure
# smells like a transient bind problem — a crash during WAL recovery must
# never be retried away. Sets SERVER and PORT. Honors STALENESS_MS (see the
# cycle loop).
start_server() {
  local attempt
  for attempt in 1 2; do
    STREAMHIST_PUBLISH_STALENESS_MS="${STALENESS_MS:-0}" \
      "$TOOL" serve --listen 0 --threads 2 --wal-dir "$WAL_DIR" \
      --wal-policy always --wal-checkpoint-ms 50 > "$LOG" 2>&1 &
    SERVER=$!
    PORT=""
    for _ in $(seq 1 100); do
      PORT=$(awk '/^LISTENING /{print $2; exit}' "$LOG")
      [ -n "$PORT" ] && return 0
      kill -0 "$SERVER" 2>/dev/null || break
      sleep 0.1
    done
    [ -n "$PORT" ] && return 0
    kill -9 "$SERVER" 2>/dev/null
    wait "$SERVER" 2>/dev/null
    if [ "$attempt" -eq 1 ] && grep -qiE 'bind|address.*in use' "$LOG"; then
      echo "bind failure; retrying once on a fresh ephemeral port"
      continue
    fi
    fail "server did not reach 'listening on' (recovery failure?)"
  done
}

for CYCLE in $(seq 1 "$CYCLES"); do
  # Alternate cycles run under a 50 ms publication-staleness bound
  # (DESIGN.md §13): appends are acked and WAL-logged but their snapshot
  # publication is coalesced, so the SIGKILL reliably lands while acked
  # values are durable-but-not-yet-reader-visible. Recovery must replay
  # them all the same — acked-implies-durable is a WAL property and cannot
  # depend on whether a snapshot happened to be published before the crash.
  STALENESS_MS=$(( (CYCLE % 2) * 50 ))
  start_server
  grep -q '^wal: policy=always' "$LOG" \
    || fail "cycle $CYCLE: no WAL recovery line before listening"

  # Client verifies the recovered state, then appends until we kill it out
  # from under them. Wait for the verification line first — killing before
  # the durability check runs would waste the cycle — then let the kill
  # land at a random point in the burst so every cycle tears the log
  # somewhere new.
  python3 "$CLIENT" "$PORT" "$STATE" 100000 > "$WORK/client.log" 2>&1 &
  CLIENT_PID=$!
  for _ in $(seq 1 100); do
    grep -q 'recovered ok' "$WORK/client.log" && break
    kill -0 "$CLIENT_PID" 2>/dev/null || break
    sleep 0.1
  done
  grep -q 'recovered ok' "$WORK/client.log" || {
    cat "$WORK/client.log"
    diagnose_recovery_check
    fail "cycle $CYCLE: client never completed its recovery check"
  }
  sleep "$(awk -v r="$RANDOM" 'BEGIN { printf "%.2f", 0.05 + (r % 100) / 400 }')"
  kill -9 "$SERVER" 2>/dev/null
  wait "$SERVER" 2>/dev/null
  wait "$CLIENT_PID"
  CLIENT_STATUS=$?
  CLIENT_PID=""
  cat "$WORK/client.log"
  [ "$CLIENT_STATUS" -eq 0 ] || fail "cycle $CYCLE: client invariant violated"
done

# One last recovery with no kill: verify-only client, then a clean SIGTERM
# shutdown whose summary must report the WAL totals.
start_server
python3 "$CLIENT" "$PORT" "$STATE" 0 || fail "final verification failed"
kill -TERM "$SERVER" 2>/dev/null
wait "$SERVER"
SERVER_STATUS=$?
[ "$SERVER_STATUS" -eq 0 ] || fail "clean shutdown exited $SERVER_STATUS"
grep -q '^wal: records=' "$LOG" || fail "no WAL totals in shutdown summary"

echo "wal_chaos: $CYCLES SIGKILL cycles, zero acked-value loss, zero failed recoveries"
exit 0
