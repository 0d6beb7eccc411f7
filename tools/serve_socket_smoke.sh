#!/usr/bin/env bash
# Socket-mode equivalence gate for nfvm-serve.
#
#   serve_socket_smoke.sh <nfvm-serve> <nfvm-serve-client> <workdir>
#
# Replays one fixed-seed trace, ended by {"cmd":"drain"}, twice: on a
# daemon's stdin, and over `nfvm-serve --socket` through
# `nfvm-serve-client --connect --input`, which sends the whole trace without
# waiting for replies, so the socket daemon's bounded queue
# (--max-inflight 8) fills and stays full. Asserts that both daemons exit 0
# and that the two reply streams are byte-identical, one reply per line.
# The socket path is <workdir>/serve.sock, so <workdir> must be short enough
# for AF_UNIX (under about 100 bytes).
set -euo pipefail

SERVE=$1
CLIENT=$2
DIR=$3

rm -rf "$DIR"
mkdir -p "$DIR"

TOPO_ARGS=(--topology waxman --nodes 60 --seed 11)
SERVE_ARGS=("${TOPO_ARGS[@]}" --algorithm online_cp)

"$CLIENT" "${TOPO_ARGS[@]}" --requests 800 --arrival-rate 20 \
  --mean-duration 40 --out "$DIR/trace.jsonl" 2> "$DIR/client.err"
echo '{"cmd":"drain"}' >> "$DIR/trace.jsonl"
TRACE_LINES=$(wc -l < "$DIR/trace.jsonl")

# Reference: the same trace on stdin.
"$SERVE" "${SERVE_ARGS[@]}" \
  < "$DIR/trace.jsonl" > "$DIR/stdin.out" 2> "$DIR/stdin.err"

SOCKET="$DIR/serve.sock"
"$SERVE" "${SERVE_ARGS[@]}" --max-inflight 8 --socket "$SOCKET" \
  --log-level info > "$DIR/socket.stdout" 2> "$DIR/socket.err" &
PID=$!
trap 'kill -9 "$PID" 2>/dev/null || true' EXIT

# The daemon logs "listening on" once listen(2) returned.
for _ in $(seq 1 1500); do
  if grep -q "listening on" "$DIR/socket.err" || ! kill -0 "$PID" 2>/dev/null; then
    break
  fi
  sleep 0.02
done
if ! grep -q "listening on" "$DIR/socket.err"; then
  echo "FAIL: the socket daemon never listened (see $DIR/socket.err)" >&2
  exit 1
fi

"$CLIENT" --connect "$SOCKET" --input "$DIR/trace.jsonl" \
  > "$DIR/socket.out" 2>> "$DIR/client.err"

# The drain reply ends the connection and the daemon.
for _ in $(seq 1 1500); do
  kill -0 "$PID" 2>/dev/null || break
  sleep 0.02
done
if kill -0 "$PID" 2>/dev/null; then
  echo "FAIL: the socket daemon did not exit after the drain" >&2
  exit 1
fi
set +e
wait "$PID"
STATUS=$?
set -e
trap - EXIT
if [ "$STATUS" -ne 0 ]; then
  echo "FAIL: the socket daemon exited $STATUS (see $DIR/socket.err)" >&2
  exit 1
fi
if [ -s "$DIR/socket.stdout" ]; then
  echo "FAIL: the socket daemon wrote to stdout; replies belong on the socket" >&2
  exit 1
fi

STDIN_LINES=$(wc -l < "$DIR/stdin.out")
if [ "$STDIN_LINES" -ne "$TRACE_LINES" ]; then
  echo "FAIL: $STDIN_LINES stdin replies for $TRACE_LINES input lines" >&2
  exit 1
fi
if ! cmp -s "$DIR/stdin.out" "$DIR/socket.out"; then
  echo "FAIL: the socket reply stream differs from the stdin one" >&2
  diff "$DIR/stdin.out" "$DIR/socket.out" | head -n 10 >&2
  exit 1
fi
echo "PASS: $TRACE_LINES replies, byte-identical on stdin and over the socket"
