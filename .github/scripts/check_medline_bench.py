#!/usr/bin/env python3
"""Gate on the Medline text-query ledger (BENCH_fig15.json).

The fig15 bench section runs M01-M11 on the Medline corpus and records,
per query, the strategy the engine picked, its result count, the naive
DOM oracle's result count, the nodes the automaton visited and the FM
locate calls of one traced run.  These are deterministic, so the gate
compares them exactly against the checked-in baseline:

 1. every query's results must equal its oracle_results;
 2. every query must pick the baseline's strategy (a query falling back
    from bottom-up to top-down is a planning regression);
 3. no query may make more fm_locate_calls than the baseline records
    (a rise means the scan-or-locate rule or a plan got worse).

Both files carry a host object; results taken on different core counts
are refused (exit 3), as servebench's compare does.  Re-baseline on the
runner's host class instead.

Usage: check_medline_bench.py BENCH_fig15.json [bench/baselines/BENCH_fig15.json]
"""
import json
import sys

path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_fig15.json"
base_path = sys.argv[2] if len(sys.argv) > 2 else "bench/baselines/BENCH_fig15.json"

with open(path) as f:
    doc = json.load(f)
with open(base_path) as f:
    base = json.load(f)

cores = doc.get("host", {}).get("cores")
base_cores = base.get("host", {}).get("cores")
if cores is None or base_cores is None:
    sys.exit(f"missing host.cores in {path} or {base_path}")
if cores != base_cores:
    print(
        f"refusing to compare: host cores differ ({cores} in {path} vs "
        f"{base_cores} in {base_path})",
        file=sys.stderr,
    )
    sys.exit(3)

rows = [m for m in doc.get("measurements", []) if "oracle_results" in m]
if not rows:
    sys.exit(f"{path}: no measurements with oracle_results fields")
baseline = {m["id"]: m for m in base.get("measurements", []) if "oracle_results" in m}

failed = False
for m in rows:
    qid = m["id"]
    b = baseline.get(qid)
    problems = []
    if m["results"] != m["oracle_results"]:
        problems.append(f"results {m['results']} != oracle {m['oracle_results']}")
    if b is None:
        problems.append(f"no baseline entry in {base_path}")
    else:
        if m["strategy"] != b["strategy"]:
            problems.append(f"strategy {m['strategy']} (baseline {b['strategy']})")
        if m["fm_locate_calls"] > b["fm_locate_calls"]:
            problems.append(
                f"fm_locate_calls {m['fm_locate_calls']} above baseline {b['fm_locate_calls']}"
            )
    status = "FAIL (" + "; ".join(problems) + ")" if problems else "ok"
    failed = failed or bool(problems)
    print(
        f"{qid}: {m['strategy']:4s} results {m['results']}  "
        f"locate {m['fm_locate_calls']}  visited {m['visited']}  {status}"
    )

sys.exit(1 if failed else 0)
