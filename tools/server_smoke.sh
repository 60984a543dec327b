#!/usr/bin/env bash
# End-to-end smoke of htgdb-server over a real loopback socket: launch the
# server on an ephemeral port, drive a scripted htgdb-cli session (DDL ->
# load -> query -> prepared statement -> close) and a second one whose
# failing statement must leave the server serving, then SIGTERM and verify
# a clean graceful drain with no leaked process. CI's server-smoke job runs
# exactly this script; locally:
#
#     tools/server_smoke.sh build
#
# where `build` is a build tree containing src/server/htgdb-server and
# src/server/htgdb-cli. Exits nonzero on any failed statement, a server
# that dies early, a nonzero server exit, or a process that survives
# SIGTERM.
set -u

BUILD_DIR="${1:-build}"
SERVER="$BUILD_DIR/src/server/htgdb-server"
CLI="$BUILD_DIR/src/server/htgdb-cli"
WORK_DIR="$(mktemp -d /tmp/htgdb-smoke.XXXXXX)"
SERVER_LOG="$WORK_DIR/server.log"
SERVER_PID=""

fail() {
  echo "server_smoke: FAIL: $*" >&2
  [ -s "$SERVER_LOG" ] && { echo "--- server log ---" >&2; cat "$SERVER_LOG" >&2; }
  [ -n "$SERVER_PID" ] && kill -KILL "$SERVER_PID" 2>/dev/null
  exit 1
}

cleanup() {
  [ -n "$SERVER_PID" ] && kill -KILL "$SERVER_PID" 2>/dev/null
  rm -rf "$WORK_DIR"
}
trap cleanup EXIT

[ -x "$SERVER" ] || fail "$SERVER not built"
[ -x "$CLI" ] || fail "$CLI not built"

# Launch on an ephemeral port; the server prints the resolved port.
HTG_SERVER_PORT=0 "$SERVER" "$WORK_DIR/db" > "$SERVER_LOG" 2>&1 &
SERVER_PID=$!

PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' "$SERVER_LOG" | head -1)"
  [ -n "$PORT" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || fail "server exited before listening"
  sleep 0.1
done
[ -n "$PORT" ] || fail "server never printed its listen port"
echo "server_smoke: server up on port $PORT (pid $SERVER_PID)"

# Scripted session: load, query, prepared-statement round trip. htgdb-cli
# exits 1 if any statement fails.
CLI_OUT="$WORK_DIR/cli.out"
"$CLI" --port "$PORT" > "$CLI_OUT" 2>&1 <<'EOF'
# load
CREATE TABLE smoke (k INT, v BIGINT)
INSERT INTO smoke VALUES (1, 10)
INSERT INTO smoke VALUES (1, 20)
INSERT INTO smoke VALUES (2, 30)
# ad-hoc query
SELECT k, COUNT(*), SUM(v) FROM smoke GROUP BY k ORDER BY k
# prepared-statement round trip
\prepare SELECT SUM(v) FROM smoke
\execute 1
\close 1
# transaction round trip: an aborted insert leaves the count unchanged,
# a committed one bumps it (BEGIN/COMMIT/ABORT cross as wire frames)
BEGIN
INSERT INTO smoke VALUES (9, 90)
ABORT
SELECT COUNT(*) FROM smoke
BEGIN;
INSERT INTO smoke VALUES (9, 90)
COMMIT;
SELECT COUNT(*) FROM smoke
\quit
EOF
CLI_STATUS=$?
echo "--- cli session ---"
cat "$CLI_OUT"
[ "$CLI_STATUS" -eq 0 ] || fail "cli session exited $CLI_STATUS"
grep -q "prepared 1" "$CLI_OUT" || fail "prepared-statement round trip missing"
grep -q "^60$" "$CLI_OUT" || fail "SUM(v) result 60 not in cli output"
# Post-ABORT count must still be 3; post-COMMIT count must be 4.
TXN_COUNTS="$(grep -x '[0-9]*' "$CLI_OUT" | tail -2 | tr '\n' ' ')"
[ "$TXN_COUNTS" = "3 4 " ] || fail "txn round trip counts were '$TXN_COUNTS' (want '3 4 ')"

# A statement error must not take the server down: SUM over a VARCHAR
# column fails with a typed bind error, and the same connection then gets
# the answer to a point read (a clustered-key seek). htgdb-cli exits 1
# because one statement failed.
ERR_OUT="$WORK_DIR/cli_err.out"
"$CLI" --port "$PORT" > "$ERR_OUT" 2>&1 <<'EOF'
CREATE TABLE smoke_kv (k BIGINT PRIMARY KEY, s VARCHAR(10))
INSERT INTO smoke_kv VALUES (1, 'one'), (2, 'two'), (3, 'three')
SELECT SUM(s) FROM smoke_kv
SELECT s FROM smoke_kv WHERE k = 2
\quit
EOF
ERR_STATUS=$?
echo "--- cli error session ---"
cat "$ERR_OUT"
[ "$ERR_STATUS" -eq 1 ] || fail "error session exited $ERR_STATUS (want 1)"
grep -q "1 statement(s) failed" "$ERR_OUT" ||
  fail "error session did not fail exactly one statement"
grep -q "SUM requires a numeric argument" "$ERR_OUT" ||
  fail "SUM(VARCHAR) did not return the typed error"
grep -q "^two$" "$ERR_OUT" || fail "point read after the error got no answer"
kill -0 "$SERVER_PID" 2>/dev/null || fail "server died after SUM(VARCHAR)"

# Graceful drain: SIGTERM, then the process must exit 0 and be gone.
kill -TERM "$SERVER_PID" || fail "could not signal server"
SERVER_STATUS=0
wait "$SERVER_PID" || SERVER_STATUS=$?
[ "$SERVER_STATUS" -eq 0 ] || fail "server exited $SERVER_STATUS after SIGTERM"
grep -q "shut down cleanly" "$SERVER_LOG" || fail "server log missing clean-drain line"
if kill -0 "$SERVER_PID" 2>/dev/null; then
  fail "server process leaked past SIGTERM"
fi
SERVER_PID=""

echo "--- server log ---"
cat "$SERVER_LOG"
echo "server_smoke: PASS"
