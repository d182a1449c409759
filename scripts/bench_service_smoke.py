#!/usr/bin/env python3
"""Acceptance checks on the downscaled service bench.

Reads target/BENCH_service_smoke.json, which
`WSERV_SMOKE=1 cargo run --release -p bench --bin bench_service` writes,
and checks every section:

    python3 scripts/bench_service_smoke.py

Each section must carry its full row schema and hold the invariants
below; an assertion failure names the section and the broken rows.
"""

import json

PATH = "target/BENCH_service_smoke.json"


def require(rows, keys):
    """Every row carries every key of `keys`."""
    assert rows, "section is empty"
    missing = [sorted(keys - set(r)) for r in rows if not keys <= set(r)]
    assert not missing, missing


def scenarios(rows, names):
    """Rows by scenario name, which must include every one of `names`."""
    by = {r["scenario"]: r for r in rows}
    assert names <= set(by), set(by)
    return by


def check_results(rows):
    require(rows, {"shards", "cache_capacity", "max_batch", "rate_hz", "accepted",
                   "completed", "rejected_queue_full", "rejected_shed",
                   "rejected_deadline", "cache_hit_rate", "mean_batch_occupancy",
                   "p50_ms", "p95_ms", "p99_ms", "throughput_hz", "makespan_s",
                   "useful_pct", "imbalance_pct"})
    assert any(r["cache_hit_rate"] > 0 for r in rows), "plan cache never hit"
    return f"{len(rows)} rows"


def check_chaos(rows):
    require(rows, {"scenario", "shards", "rate_hz", "requests", "completed",
                   "degraded_served", "restarts", "requeued", "quarantined",
                   "rejected_total", "rejected_shard_failed", "rejected_requeued",
                   "rejected_deadline", "failed_shards", "p95_ms",
                   "throughput_hz", "makespan_s", "fault_recovery_pct"})
    scenarios(rows, {"fault_free", "shard_crash_failover", "degraded_brownout"})
    lost = [(r["scenario"], r["requests"] - r["completed"] - r["rejected_total"])
            for r in rows if r["completed"] + r["rejected_total"] != r["requests"]]
    assert not lost, ("lost requests", lost)
    crashed = [r for r in rows if r["failed_shards"]]
    assert crashed, "no chaos row lost a shard"
    for r in crashed:
        assert r["fault_recovery_pct"] > 0, (r["scenario"], "no FaultRecovery time")
    return f"{len(rows)} rows, {len(crashed)} with failed shards"


def check_transport(rows):
    require(rows, {"scenario", "clients", "reqs_per_client", "delivered",
                   "retries", "replays", "frames", "p50_ms", "p95_ms", "p99_ms",
                   "comm_ms", "fault_recovery_ms", "throughput_hz", "makespan_s"})
    by = scenarios(rows, {"clean_wire", "wire_chaos", "failover_under_load"})
    for r in rows:
        assert r["delivered"] == r["clients"] * r["reqs_per_client"], \
            (r["scenario"], "lost requests")
    chaos = by["wire_chaos"]
    assert chaos["retries"] > 0 and chaos["replays"] > 0, "wire chaos fired no faults"
    return f"{len(rows)} rows"


def check_progressive(rows):
    require(rows, {"scenario", "clients", "reqs_per_client", "delivered",
                   "threshold", "step", "tolerance", "planes", "cancels",
                   "response_bytes", "monolithic_bytes", "savings_pct",
                   "max_error_bound", "p50_ms", "p95_ms", "p99_ms",
                   "comm_ms", "throughput_hz", "makespan_s"})
    by = scenarios(rows, {"monolithic", "progressive_lossless", "progressive_lossy",
                          "tolerance_cancel", "tolerance_cancel_chaos"})
    for r in rows:
        assert r["delivered"] == r["clients"] * r["reqs_per_client"], \
            (r["scenario"], "lost requests")
    assert by["progressive_lossless"]["max_error_bound"] == 0, "lossless must be exact"
    cancel = by["tolerance_cancel"]
    assert cancel["cancels"] > 0, "the tolerance never cancelled a sequence"
    assert cancel["max_error_bound"] <= cancel["tolerance"], "tolerance violated"
    lossy = [r for r in rows if r["threshold"] > 0]
    assert any(r["response_bytes"] < r["monolithic_bytes"] for r in lossy), \
        "no lossy scenario beat the monolithic byte counterfactual"
    return f"{len(rows)} rows"


def check_elastic(rows):
    require(rows, {"scenario", "requests", "rate_hz", "zipf_s", "shards",
                   "reserve", "accepted", "completed", "shed", "stolen",
                   "splits", "merges", "actions", "imbalance_pct",
                   "p50_ms", "p95_ms", "p99_ms", "throughput_hz", "makespan_s"})
    by = scenarios(rows, {"static", "stealing", "split_merge"})
    for r in rows:
        assert r["completed"] + r["shed"] == r["accepted"], \
            (r["scenario"], "books unbalanced")
    assert by["stealing"]["stolen"] > 0, "stealing row never stole"
    assert by["split_merge"]["splits"] > 0, "split_merge row never split"
    assert by["split_merge"]["merges"] > 0, "split_merge row never merged"
    static = by["static"]["imbalance_pct"]
    for s in ("stealing", "split_merge"):
        assert by[s]["imbalance_pct"] < static, (s, "elastic imbalance did not beat static")
    return f"{len(rows)} rows, static imbalance {static}% vs stealing " \
           f"{by['stealing']['imbalance_pct']}%"


CHECKS = {
    "results": check_results,
    "chaos_results": check_chaos,
    "transport_results": check_transport,
    "progressive_results": check_progressive,
    "elastic_results": check_elastic,
}


def main():
    with open(PATH) as f:
        doc = json.load(f)
    for name, check in CHECKS.items():
        try:
            summary = check(doc[name])
        except AssertionError as e:
            raise AssertionError(f"{name}: {e}") from e
        print(f"{name} smoke OK: {summary}")


if __name__ == "__main__":
    main()
