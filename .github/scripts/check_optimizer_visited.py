#!/usr/bin/env python3
"""Gate on the whole-query optimizer's visited-node and tag-jump ledger.

The xmark bench section traces every query twice — once on the raw
automaton, once optimized — and records both node-visit counts in its
JSON measurements (visited_noopt / visited_opt), plus the Tag_index
jump calls of each run (tag_jumps_noopt / tag_jumps_opt).  The
optimizer must never make a query visit MORE nodes, and across the
whole battery it must keep a substantial total reduction (the
reproduction target in EXPERIMENTS.md is ~74%; the gate allows drift
down to 30%).  A query also fails when its optimized run makes more
tag jumps than the checked-in baseline records: jump counts are
deterministic, so any rise is a frontier regression.

Usage: check_optimizer_visited.py BENCH_xmark.json [BASELINE_xmark.json]
(the baseline defaults to bench/baselines/BENCH_xmark.json)
"""
import json
import sys

MIN_TOTAL_REDUCTION = 0.30

path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_xmark.json"
baseline_path = sys.argv[2] if len(sys.argv) > 2 else "bench/baselines/BENCH_xmark.json"
with open(path) as f:
    doc = json.load(f)
with open(baseline_path) as f:
    baseline = {
        m["id"]: m["tag_jumps_opt"]
        for m in json.load(f).get("measurements", [])
        if "tag_jumps_opt" in m
    }

rows = [m for m in doc.get("measurements", []) if "visited_noopt" in m]
if not rows:
    sys.exit(f"{path}: no measurements with visited_noopt/visited_opt fields")

failed = False
total_off = total_on = 0
for m in rows:
    qid, off, on = m["id"], m["visited_noopt"], m["visited_opt"]
    jumps, base_jumps = m["tag_jumps_opt"], baseline.get(m["id"])
    total_off += off
    total_on += on
    status = "ok"
    if on > off:
        status = "FAIL (optimized run visited more nodes)"
        failed = True
    elif base_jumps is None:
        status = f"FAIL (no tag_jumps_opt for {qid} in {baseline_path})"
        failed = True
    elif jumps > base_jumps:
        status = f"FAIL (tag jumps above baseline {base_jumps})"
        failed = True
    print(f"{qid}: visited {off} -> {on}  tag jumps {jumps}  {status}")

reduction = 1.0 - total_on / total_off if total_off else 0.0
print(f"total: visited {total_off} -> {total_on}  ({reduction:.1%} reduction)")
if reduction < MIN_TOTAL_REDUCTION:
    failed = True
    print(f"FAIL: total reduction below {MIN_TOTAL_REDUCTION:.0%}")

sys.exit(1 if failed else 0)
