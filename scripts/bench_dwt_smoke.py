#!/usr/bin/env python3
"""Acceptance checks on the downscaled DWT engine bench.

Reads target/BENCH_dwt_smoke.json, which
`DWT_SMOKE=1 cargo run --release -p bench --bin bench_dwt` writes, and
checks that every row carries the full schema, that the CDF 5/3 lifting
rows are present, and that lifting is no slower than the D4 convolution
engine at the smoke size:

    python3 scripts/bench_dwt_smoke.py
"""

import json

with open("target/BENCH_dwt_smoke.json") as f:
    rows = json.load(f)["results"]
required = {"name", "size", "filter", "levels", "threads", "median_ns_per_px", "samples"}
missing = [sorted(required - set(r)) for r in rows if not required <= set(r)]
assert not missing, missing
lift = [r for r in rows if r["name"] == "engine_lifting_1t" and r["filter"] == "CDF53"]
assert lift, "no CDF53 lifting rows in smoke output"
conv = [r for r in rows
        if r["name"] == "engine_1t" and r["filter"] == "D4" and r["size"] == lift[0]["size"]]
assert conv, "no D4 engine row at the smoke size"
l = min(r["median_ns_per_px"] for r in lift)
c = conv[0]["median_ns_per_px"]
assert l <= c, f"lifting {l} ns/px slower than D4 convolution {c} ns/px"
print(f"lifting smoke OK: {l:.3f} ns/px vs D4 engine {c:.3f} ns/px")
