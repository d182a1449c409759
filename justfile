# Common developer workflows. Run `just --list` to see targets.

# Build everything in release mode.
build:
    cargo build --release

# The tier-1 gate: release build plus the root package's tests, then
# every workspace crate's tests.
check:
    cargo build --release
    cargo test -q
    cargo test --workspace -q

# Lints as CI runs them.
lint:
    cargo clippy --workspace --all-targets -- -D warnings
    cargo fmt --all --check

# Regenerate BENCH_dwt.json (engine vs legacy, median ns/pixel).
# Set REPRO_FULL=1 for the full 256²–4096² size sweep.
bench-json:
    cargo run --release -p bench --bin bench_dwt

# Criterion engine benchmarks (human-readable companion to bench-json).
bench-engine:
    cargo bench -p bench --bench dwt_engine

# Regenerate BENCH_dwt.json with the lifting-vs-convolution rows (alias
# of bench-json, named for the lifting headline).
lift-bench:
    cargo run --release -p bench --bin bench_dwt

# Downscaled lifting bench as CI runs it: headline only at 512x512,
# writes target/BENCH_dwt_smoke.json, then asserts the lifting rows are
# present, carry the full row schema, and that CDF 5/3 lifting is no
# slower than the D4 convolution engine at the smoke size.
lift-bench-smoke:
    DWT_SMOKE=1 cargo run --release -p bench --bin bench_dwt
    python3 -c "import json; d = json.load(open('target/BENCH_dwt_smoke.json')); rows = d['results']; required = {'name', 'size', 'filter', 'levels', 'threads', 'median_ns_per_px', 'samples'}; missing = [sorted(required - set(r)) for r in rows if not required <= set(r)]; assert not missing, missing; lift = [r for r in rows if r['name'] == 'engine_lifting_1t' and r['filter'] == 'CDF53']; assert lift, 'no CDF53 lifting rows'; conv = [r for r in rows if r['name'] == 'engine_1t' and r['filter'] == 'D4' and r['size'] == lift[0]['size']]; assert conv, 'no D4 engine row at smoke size'; l = min(r['median_ns_per_px'] for r in lift); c = conv[0]['median_ns_per_px']; assert l <= c, f'lifting {l} ns/px slower than convolution {c} ns/px'; print(f'lifting smoke OK: {l:.3f} ns/px vs D4 engine {c:.3f} ns/px')"

# Fault-matrix gate: sweep the drop-rate x crash-count grid CI runs and
# assert crash recovery stays bit-identical at every point, for the
# striped and block decompositions and the distributed reconstruction.
faults:
    #!/usr/bin/env bash
    set -euo pipefail
    for drop in 0.0 0.001 0.02; do
        for crashes in 0 1 3; do
            echo "--- drop_rate=$drop crashes=$crashes"
            FAULT_DROP_RATE=$drop FAULT_CRASHES=$crashes \
                cargo test -q --test fault_matrix
        done
    done

# Regenerate BENCH_faults.json (degradation curves of the block DWT
# under injected link faults and rank crashes).
faults-json:
    cargo run --release -p bench --bin bench_faults

# Chaos gate: sweep the shard-crash axis of the serving fault grid and
# run the full chaos invariant suite (exactly-once resolution, seeded
# replay, supervision, failover, quarantine, degraded mode) at every
# point, live driver and sim both.
chaos:
    #!/usr/bin/env bash
    set -euo pipefail
    for crash_shards in 0 1 2; do
        echo "--- crash_shards=$crash_shards"
        WSERV_CRASH_SHARDS=$crash_shards cargo test -q --release --test wserv_chaos
    done

# Downscaled chaos gate as CI runs it: one crash-grid point plus the
# BENCH_service chaos-row schema and zero-lost-requests assertions on
# the smoke sweep.
chaos-smoke:
    WSERV_CRASH_SHARDS=1 cargo test -q --test wserv_chaos
    WSERV_SMOKE=1 cargo run --release -p bench --bin bench_service
    python3 -c "import json; rows = json.load(open('target/BENCH_service_smoke.json'))['chaos_results']; required = {'scenario', 'shards', 'rate_hz', 'requests', 'completed', 'degraded_served', 'restarts', 'requeued', 'quarantined', 'rejected_total', 'rejected_shard_failed', 'rejected_requeued', 'rejected_deadline', 'failed_shards', 'p95_ms', 'throughput_hz', 'makespan_s', 'fault_recovery_pct'}; missing = [sorted(required - set(r)) for r in rows if not required <= set(r)]; assert not missing, missing; lost = [(r['scenario'], r['requests'] - r['completed'] - r['rejected_total']) for r in rows if r['completed'] + r['rejected_total'] != r['requests']]; assert not lost, lost; crashed = [r for r in rows if r['failed_shards']]; assert crashed and all(r['fault_recovery_pct'] > 0 for r in crashed), 'no crash row charged FaultRecovery'; print('chaos smoke OK:', len(rows), 'rows,', len(crashed), 'with failed shards')"

# Regenerate BENCH_service.json (wserv load-generator sweep: arrival
# rate x shards x cache x batching, plus the seeded chaos scenario
# sweep; asserts cache/batching dominance, the exactly-once chaos
# invariant, and byte-reproducibility).
serve-bench:
    cargo run --release -p bench --bin bench_service

# Remote-transport gate: the wire-protocol property tests, the
# end-to-end remote suite (exactly-once under seeded wire faults,
# backpressure, drain with half-open connections, shim/TCP parity), and
# the full-scale transport rows of BENCH_service.json (closed-loop sim
# sweep plus the live shim-vs-TCP failover run; the binary itself
# asserts zero lost requests and identical resolution books).
remote-bench:
    cargo test -q --release --test wire_properties --test wserv_remote
    cargo run --release -p bench --bin bench_service

# Downscaled remote-transport gate as CI runs it: same tests, smoke
# bench, then schema + zero-lost + sim-vs-live assertions on the
# transport_results and transport_live rows.
remote-bench-smoke:
    cargo test -q --test wire_properties --test wserv_remote
    WSERV_SMOKE=1 cargo run --release -p bench --bin bench_service
    python3 -c "import json; d = json.load(open('target/BENCH_service_smoke.json')); rows = d['transport_results']; required = {'scenario', 'clients', 'reqs_per_client', 'delivered', 'retries', 'replays', 'frames', 'p50_ms', 'p95_ms', 'p99_ms', 'comm_ms', 'fault_recovery_ms', 'throughput_hz', 'makespan_s'}; missing = [sorted(required - set(r)) for r in rows if not required <= set(r)]; assert not missing, missing; names = {r['scenario'] for r in rows}; assert {'clean_wire', 'wire_chaos', 'failover_under_load'} <= names, names; lost = [(r['scenario'], r['clients'] * r['reqs_per_client'] - r['delivered']) for r in rows if r['delivered'] != r['clients'] * r['reqs_per_client']]; assert not lost, lost; chaos = next(r for r in rows if r['scenario'] == 'wire_chaos'); assert chaos['retries'] > 0 and chaos['replays'] > 0, 'wire chaos fired no faults'; live = d['transport_live']; assert {r['transport'] for r in live} == {'shim', 'tcp'}, live; comp = [(r['transport'], r['clients'] * r['reqs_per_client'] - r['completed']) for r in live if r['completed'] != r['clients'] * r['reqs_per_client']]; assert not comp, comp; assert all(r['sim_p99_ms'] > 0 and r['p99_ms'] > 0 for r in live), 'missing tail latencies'; print('remote smoke OK:', len(rows), 'sim rows,', len(live), 'live rows')"

# Progressive-delivery gate: the wire/progressive property tests, the
# progressive end-to-end remote tests (lossless bitwise over shim and
# TCP, honest bounds, cancel exactly-once under chaos), and the
# full-scale progressive rows of BENCH_service.json (bytes-to-tolerance
# vs monolithic, sim and live).
progressive-bench:
    cargo test -q --release --test wire_properties --test wserv_remote progressive
    cargo run --release -p bench --bin bench_service

# Downscaled progressive gate as CI runs it: same tests, smoke bench,
# then schema + error-bound + bytes-beat-monolithic assertions on the
# progressive_results and progressive_live rows.
progressive-bench-smoke:
    cargo test -q --test wire_properties --test wserv_remote progressive
    WSERV_SMOKE=1 cargo run --release -p bench --bin bench_service
    python3 -c "import json; d = json.load(open('target/BENCH_service_smoke.json')); rows = d['progressive_results']; required = {'scenario', 'clients', 'reqs_per_client', 'delivered', 'threshold', 'step', 'tolerance', 'planes', 'cancels', 'response_bytes', 'monolithic_bytes', 'savings_pct', 'max_error_bound', 'p50_ms', 'p95_ms', 'p99_ms', 'comm_ms', 'throughput_hz', 'makespan_s'}; missing = [sorted(required - set(r)) for r in rows if not required <= set(r)]; assert not missing, missing; by = {r['scenario']: r for r in rows}; assert {'monolithic', 'progressive_lossless', 'progressive_lossy', 'tolerance_cancel'} <= set(by), set(by); assert all(r['delivered'] == r['clients'] * r['reqs_per_client'] for r in rows), 'lost requests'; assert by['progressive_lossless']['max_error_bound'] == 0, 'lossless must be exact'; assert by['tolerance_cancel']['cancels'] > 0, 'tolerance never cancelled'; assert by['tolerance_cancel']['max_error_bound'] <= by['tolerance_cancel']['tolerance'], 'tolerance violated'; lossy = [r for r in rows if r['threshold'] > 0]; assert any(r['response_bytes'] < r['monolithic_bytes'] for r in lossy), 'no lossy scenario beat monolithic bytes'; live = d['progressive_live']; assert {r['transport'] for r in live} == {'shim', 'tcp'}, live; assert all(next(r for r in live if r['transport'] == t and r['scenario'] == 'progressive_cancel')['bytes_out'] < next(r for r in live if r['transport'] == t and r['scenario'] == 'monolithic')['bytes_out'] for t in ('shim', 'tcp')), 'live progressive did not beat monolithic bytes'; assert all(r['max_error_bound'] <= r['tolerance'] for r in live if r['scenario'] == 'progressive_cancel'), 'live bound exceeds tolerance'; print('progressive smoke OK:', len(rows), 'sim rows,', len(live), 'live rows')"

# Elastic-sharding gate: the elastic end-to-end suite (steals under
# skew, split/merge lifecycle, crash fences, exactly-once books,
# bit-identical replay) and the full-scale elastic_results rows of
# BENCH_service.json (static vs stealing vs split/merge under the
# seeded Zipf stream; the binary asserts elastic imbalance beats static
# and the matched-set p95 never regresses).
elastic-bench:
    cargo test -q --release --test wserv_elastic
    cargo run --release -p bench --bin bench_service

# Downscaled elastic gate as CI runs it: same tests, smoke bench, then
# schema + controller-acted + imbalance-beats-static assertions on the
# elastic_results rows.
elastic-bench-smoke:
    cargo test -q --test wserv_elastic
    WSERV_SMOKE=1 cargo run --release -p bench --bin bench_service
    python3 -c "import json; rows = json.load(open('target/BENCH_service_smoke.json'))['elastic_results']; required = {'scenario', 'requests', 'rate_hz', 'zipf_s', 'shards', 'reserve', 'accepted', 'completed', 'shed', 'stolen', 'splits', 'merges', 'actions', 'imbalance_pct', 'p50_ms', 'p95_ms', 'p99_ms', 'throughput_hz', 'makespan_s'}; missing = [sorted(required - set(r)) for r in rows if not required <= set(r)]; assert not missing, missing; by = {r['scenario']: r for r in rows}; assert {'static', 'stealing', 'split_merge'} <= set(by), set(by); lost = [(r['scenario'], r['accepted'] - r['completed'] - r['shed']) for r in rows if r['completed'] + r['shed'] != r['accepted']]; assert not lost, lost; assert by['stealing']['stolen'] > 0, 'stealing row never stole'; assert by['split_merge']['splits'] > 0 and by['split_merge']['merges'] > 0, 'split_merge row never split or merged'; assert all(by[s]['imbalance_pct'] < by['static']['imbalance_pct'] for s in ('stealing', 'split_merge')), 'elastic imbalance did not beat static'; print('elastic smoke OK:', len(rows), 'rows, static imbalance', by['static']['imbalance_pct'], '% vs stealing', by['stealing']['imbalance_pct'], '%')"

# Downscaled serving bench CI runs: fixed seed, small grid, writes
# target/BENCH_service_smoke.json and asserts the same dominance and
# reproducibility conditions.
serve-bench-smoke:
    WSERV_SMOKE=1 cargo run --release -p bench --bin bench_service
    python3 -c "import json; d = json.load(open('target/BENCH_service_smoke.json')); rows = d['results']; assert rows and any(r['cache_hit_rate'] > 0 for r in rows), 'plan cache never hit'; required = {'shards', 'cache_capacity', 'max_batch', 'rate_hz', 'accepted', 'completed', 'rejected_queue_full', 'rejected_shed', 'rejected_deadline', 'cache_hit_rate', 'mean_batch_occupancy', 'p50_ms', 'p95_ms', 'p99_ms', 'throughput_hz', 'makespan_s', 'useful_pct', 'imbalance_pct'}; missing = [sorted(required - set(r)) for r in rows if not required <= set(r)]; assert not missing, missing; print('serving smoke OK:', len(rows), 'rows')"

# Benchmark correctness smoke as CI runs it: every BENCHMARK.json
# workload for 2 seconds through the benchmark's own command; each run
# must exit 0 and report "correct": true (bit-identity with the oracles
# and honest progressive bounds, over the real TCP path).
perfbench-smoke:
    #!/usr/bin/env python3
    import json, subprocess
    bench = json.load(open("BENCHMARK.json"))
    for w in bench["workloads"]:
        cmd = bench["command"] + ["--workload", w["name"], "--seed", "1", "--seconds", "2", "--trace", "0"]
        run = subprocess.run(cmd, capture_output=True, text=True)
        assert run.returncode == 0, (w["name"], run.returncode, run.stderr[-2000:])
        out = json.loads(run.stdout.strip().splitlines()[-1])
        assert out["correct"] is True, (w["name"], out)
        print("perfbench smoke OK:", w["name"], out["attempted"], "requests")
