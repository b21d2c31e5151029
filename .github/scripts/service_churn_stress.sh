#!/usr/bin/env bash
# Connection-churn stress for the event-driven `sxsi serve` front end.
#
# Cycles CHURN_N (default 10000) short-lived TCP sessions against a
# live `sxsi serve` process — connect, one COUNT,
# read the answer, disconnect — then asserts via STATS that every
# accepted connection was also closed (no session leaked in the
# loop's registration table) and via /proc/<pid>/fd that the server's
# descriptor count came back to where it started (no fd leaked on the
# teardown path).
set -euo pipefail

CHURN_N="${CHURN_N:-10000}"

if command -v opam > /dev/null 2>&1; then
  opam exec -- dune build bin/sxsi.exe
else
  dune build bin/sxsi.exe
fi
SXSI=_build/default/bin/sxsi.exe

workdir=$(mktemp -d)
server_pid=""
trap '[ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null; rm -rf "$workdir"' EXIT

printf '<site><item><v>1</v></item><item><v>2</v></item><item><v>3</v></item></site>\n' \
  > "$workdir/doc.xml"

"$SXSI" serve -p 0 \
  --load "doc=$workdir/doc.xml" 2> "$workdir/server.log" &
server_pid=$!

port=""
for _ in $(seq 1 100); do
  port=$(sed -n 's/.*listening on [^:]*:\([0-9][0-9]*\)$/\1/p' "$workdir/server.log" | head -1)
  [ -n "$port" ] && break
  sleep 0.1
done
if [ -z "$port" ]; then
  echo "FAIL: server never reported a listening port" >&2
  cat "$workdir/server.log" >&2
  exit 1
fi

count_fds() { ls "/proc/$server_pid/fd" | wc -l; }

# one warm-up session so lazily-created descriptors (journal, caches)
# exist before the baseline snapshot
python3 - "$port" <<'EOF'
import socket, sys
s = socket.create_connection(("127.0.0.1", int(sys.argv[1])))
s.sendall(b"COUNT doc //item\n")
assert s.makefile().readline().strip() == "OK 3"
s.close()
EOF
sleep 0.3
fds_before=$(count_fds)

python3 - "$port" "$CHURN_N" <<'EOF'
import socket, sys, time

port, n = int(sys.argv[1]), int(sys.argv[2])

def stat(key):
    s = socket.create_connection(("127.0.0.1", port))
    f = s.makefile()
    s.sendall(b"STATS\n")
    value = None
    line = f.readline().strip()
    assert line == "DATA", f"STATS: expected DATA, got {line!r}"
    while True:
        line = f.readline().strip()
        if line == ".":
            break
        if line.startswith(key + "="):
            value = line[len(key) + 1:]
    s.close()
    assert value is not None, f"STATS missing {key}"
    return int(value)

t0 = time.time()
for i in range(n):
    s = socket.create_connection(("127.0.0.1", port))
    s.sendall(b"COUNT doc //item\n")
    resp = s.makefile().readline().strip()
    assert resp == "OK 3", f"churn round {i}: {resp!r}"
    s.close()
print(f"churned {n} connections in {time.time() - t0:.1f}s")

# let the loop reap the server side of the tail, then account: every
# accepted session must be closed except the live STATS probe itself
deadline = time.time() + 10.0
while time.time() < deadline:
    opened, closed = stat("connections_opened"), stat("connections_closed")
    if opened - closed <= 1:
        break
    time.sleep(0.1)
opened, closed = stat("connections_opened"), stat("connections_closed")
print(f"connections: opened={opened} closed={closed}")
assert opened >= n, f"only {opened} sessions accounted, expected >= {n}"
assert opened - closed <= 1, (
    f"{opened - closed} sessions leaked (opened={opened}, closed={closed})"
)
EOF

sleep 0.3
fds_after=$(count_fds)
echo "server fds: $fds_before before churn, $fds_after after"
if [ "$fds_after" -gt $((fds_before + 2)) ]; then
  echo "FAIL: server leaked descriptors across the churn" >&2
  ls -l "/proc/$server_pid/fd" >&2 || true
  exit 1
fi

echo "PASS: $CHURN_N connections churned, every session reaped, no fd leak"
