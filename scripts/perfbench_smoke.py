#!/usr/bin/env python3
"""Benchmark correctness smoke: run every BENCHMARK.json workload for
2 seconds through the benchmark's own command. Each run must exit 0 and
report "correct": true (bit-identity with the oracles and honest
progressive bounds, over the real TCP path). Run from the repo root:

    python3 scripts/perfbench_smoke.py
"""

import json
import subprocess

with open("BENCHMARK.json") as f:
    bench = json.load(f)
for w in bench["workloads"]:
    cmd = bench["command"] + ["--workload", w["name"], "--seed", "1",
                              "--seconds", "2", "--trace", "0"]
    run = subprocess.run(cmd, capture_output=True, text=True)
    assert run.returncode == 0, (w["name"], run.returncode, run.stderr[-2000:])
    out = json.loads(run.stdout.strip().splitlines()[-1])
    assert out["correct"] is True, (w["name"], out)
    print("perfbench smoke OK:", w["name"], out["attempted"], "requests")
