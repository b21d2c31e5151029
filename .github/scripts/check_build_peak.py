#!/usr/bin/env python3
"""Gate on the index-build peak memory (BENCH_fig8.json).

The fig8 bench section indexes XMark documents of growing size and the
8000-citation Medline document, each with `sxsi index --domains 1` in a
fresh process, and records every row's peak resident set over the
document size (peak_ratio).  On one domain the build's peak repeats to
within 1% from run to run, so the gate compares it against the
checked-in baseline: any row whose peak/document ratio exceeds the
baseline's by more than 10% fails, as does a baseline row that is
missing from the run.

Both files carry a host object; results taken on different core counts
are refused (exit 3), as the other bench gates do.  Re-baseline on the
runner's host class instead.

Usage: check_build_peak.py BENCH_fig8.json [bench/baselines/BENCH_fig8.json]
"""
import json
import sys

TOLERANCE = 1.10

path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_fig8.json"
base_path = sys.argv[2] if len(sys.argv) > 2 else "bench/baselines/BENCH_fig8.json"

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

rows = {m["row"]: m for m in doc.get("measurements", []) if "peak_ratio" in m}
baseline = {m["row"]: m for m in base.get("measurements", []) if "peak_ratio" in m}
if not baseline:
    sys.exit(f"{base_path}: no measurements with peak_ratio fields")

failed = False
for name, b in baseline.items():
    m = rows.get(name)
    if m is None:
        print(f"{name}: FAIL (missing from {path})")
        failed = True
        continue
    limit = b["peak_ratio"] * TOLERANCE
    ok = m["peak_ratio"] <= limit
    failed = failed or not ok
    print(
        f"{name}: peak {m['peak_bytes'] / 1e6:.1f} MB on {m['doc_bytes'] / 1e6:.2f} MB, "
        f"{m['peak_ratio']:.2f}x (baseline {b['peak_ratio']:.2f}x, limit {limit:.2f}x)  "
        + ("ok" if ok else "FAIL")
    )

sys.exit(1 if failed else 0)
