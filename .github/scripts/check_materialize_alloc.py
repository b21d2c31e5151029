#!/usr/bin/env python3
"""Gate on the bytes a MATERIALIZE allocates per reply byte.

The xmark bench section sends each serialization-bound MATERIALIZE
query (X01, X02, X13) through Service.handle_line and the wire
rendering, and records the bytes allocated per reply byte
(alloc_per_reply_byte).  One sequential serializer writes framed reply
bytes into a reused buffer, so a reply costs about its final string:
1 byte per byte.  The gate fails above a fixed 2.0.  Allocation does
not depend on host speed, so the bound needs no baseline.

Usage: check_materialize_alloc.py BENCH_xmark.json
"""
import json
import sys

MAX_ALLOC_PER_BYTE = 2.0
REQUIRED = {"X01", "X02", "X13"}

path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_xmark.json"
with open(path) as f:
    doc = json.load(f)

rows = [m for m in doc.get("measurements", []) if "alloc_per_reply_byte" in m]
failed = False
for m in rows:
    ratio = m["alloc_per_reply_byte"]
    status = "ok"
    if ratio > MAX_ALLOC_PER_BYTE:
        status = f"FAIL (above {MAX_ALLOC_PER_BYTE})"
        failed = True
    print(
        f"{m['id']} MATERIALIZE: {m['reply_bytes']} reply bytes, "
        f"{m['serialized_bytes']} serialized, {ratio:.2f} B allocated per reply byte  {status}"
    )
missing = REQUIRED - {m["id"] for m in rows}
if missing:
    print(f"FAIL: no MATERIALIZE row for {', '.join(sorted(missing))} in {path}")
    failed = True
sys.exit(1 if failed else 0)
