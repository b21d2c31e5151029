#!/usr/bin/env bash
# Profiler smoke test against a live server.
#
# Starts `sxsi serve` with a multi-domain build pool, hammers it
# with COUNT/QUERY load from a background client, and attaches
# `sxsi profile` for a 1-second window.  Asserts:
#   - the folded (collapsed-stack) output is non-empty and well-formed
#     ("path;path value" lines),
#   - the sampled load is attributed to real cost centers: at least
#     one engine/, one pool/ (or evloop/) and one service/ (or
#     evloop/) frame appears somewhere in the stacks,
#   - the --json report parses and carries the sxsi-prof-v1 schema.
set -euo pipefail

if command -v opam > /dev/null 2>&1; then
  opam exec -- dune build bin/sxsi.exe
else
  dune build bin/sxsi.exe
fi
SXSI=_build/default/bin/sxsi.exe

workdir=$(mktemp -d)
server_pid=""
load_pid=""
trap '[ -n "$load_pid" ] && kill "$load_pid" 2>/dev/null; [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null; rm -rf "$workdir"' EXIT

"$SXSI" gen xmark --scale 400 -o "$workdir/doc.xml"

# caches off so every request does real engine work the sampler can
# attribute (with caches on, the steady state is all cache hits and
# the profile is dominated by idle executors -- correct, but not a
# smoke test of attribution)
SXSI_DOMAINS=2 "$SXSI" serve -p 0 \
  --compiled-cache 0 --count-cache 0 \
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

# background load for the whole profiling window; a rotating query
# battery defeats single-flight coalescing between iterations
python3 - "$port" <<'EOF' &
import itertools, socket, sys
s = socket.create_connection(("127.0.0.1", int(sys.argv[1])))
f = s.makefile()
queries = [
    b"COUNT doc //item[location]\n",
    b"COUNT doc //person/name\n",
    b"COUNT doc //open_auction//bidder\n",
    b"COUNT doc //closed_auction/price\n",
]
for q in itertools.cycle(queries):
    try:
        s.sendall(q)
        f.readline()
    except OSError:
        break
EOF
load_pid=$!
sleep 0.3

"$SXSI" profile -p "$port" --seconds 1 -o "$workdir/profile.folded"
"$SXSI" profile -p "$port" --seconds 1 --json -o "$workdir/profile.json"

kill "$load_pid" 2>/dev/null || true
load_pid=""

echo "--- folded profile ---"
cat "$workdir/profile.folded"

python3 - "$workdir/profile.folded" "$workdir/profile.json" <<'EOF'
import json, sys

folded = open(sys.argv[1]).read().strip().splitlines()
assert folded, "folded profile is empty"
frames = set()
for line in folded:
    stack, _, value = line.rpartition(" ")
    assert stack, f"malformed folded line: {line!r}"
    assert value.isdigit(), f"non-numeric folded value: {line!r}"
    frames.update(stack.split(";"))
print("frames:", sorted(frames))

# the load must be attributed to the engine, the pool or event loop,
# and the service layer -- not just unattributed time
assert any(f.startswith("engine/") for f in frames), f"no engine/ frame in {frames}"
assert any(f.startswith(("pool/", "evloop/")) for f in frames), \
    f"no pool/ or evloop/ frame in {frames}"
assert any(f.startswith(("service/", "evloop/")) for f in frames), \
    f"no service/ or evloop/ frame in {frames}"

report = json.load(open(sys.argv[2]))
assert report["schema"] == "sxsi-prof-v1", report.get("schema")
assert report["ticks"] > 0, "sampler took no ticks"
assert report["stacks"], "JSON report attributed no stacks"
assert 900_000_000 < report["duration_ns"] < 10_000_000_000, report["duration_ns"]
print(f"profile smoke OK: {len(folded)} stacks, {report['ticks']} ticks")
EOF
