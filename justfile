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
    python3 scripts/bench_dwt_smoke.py

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

# Downscaled chaos gate: one crash-grid point of the chaos suite, then
# the smoke bench and every section's checks (for chaos_results: schema,
# zero lost requests, FaultRecovery charged on every crashed row).
chaos-smoke:
    WSERV_CRASH_SHARDS=1 cargo test -q --test wserv_chaos
    WSERV_SMOKE=1 cargo run --release -p bench --bin bench_service
    python3 scripts/bench_service_smoke.py

# Committed benchmark files must reproduce: build in release, run
# bench_service and bench_faults in a scratch directory, and require
# both BENCH_faults.json and BENCH_service.json to be byte-identical.
bench-golden:
    #!/usr/bin/env bash
    set -euo pipefail
    cargo build --release -p bench --bin bench_service --bin bench_faults
    bin="$(realpath "${CARGO_TARGET_DIR:-target}")/release"
    dir="$(mktemp -d)"
    trap 'rm -rf "$dir"' EXIT
    (cd "$dir" && "$bin/bench_service" > /dev/null && "$bin/bench_faults" > /dev/null)
    cmp "$dir/BENCH_faults.json" BENCH_faults.json
    cmp "$dir/BENCH_service.json" BENCH_service.json
    echo "bench golden OK: BENCH_faults.json and BENCH_service.json reproduce"

# Regenerate BENCH_service.json (wserv load-generator sweep: arrival
# rate x shards x cache x batching, plus the seeded chaos scenario
# sweep; asserts cache/batching dominance, the exactly-once chaos
# invariant, and byte-reproducibility).
serve-bench:
    cargo run --release -p bench --bin bench_service

# Remote-transport gate: the wire-protocol property tests, the
# end-to-end remote suite (exactly-once under seeded wire faults, worker
# kills under a faulted wire, backpressure, drain with half-open
# connections, shim/TCP parity), and the full-scale transport rows of
# BENCH_service.json (the closed-loop simulator sweep). Wall-clock
# numbers for the same path come from perfbench's remote_tcp workload.
remote-bench:
    cargo test -q --release --test wire_properties --test wserv_remote
    cargo run --release -p bench --bin bench_service

# Downscaled remote-transport gate: same tests, smoke bench, then every
# section's checks (for transport_results: schema, zero lost, wire chaos
# fired).
remote-bench-smoke:
    cargo test -q --test wire_properties --test wserv_remote
    WSERV_SMOKE=1 cargo run --release -p bench --bin bench_service
    python3 scripts/bench_service_smoke.py

# Progressive-delivery gate: the wire/progressive property tests, the
# progressive end-to-end remote tests (lossless bitwise over shim and
# TCP, honest bounds, fewer bytes than monolithic to a tolerance, cancel
# exactly-once under chaos), and the full-scale progressive rows of
# BENCH_service.json (bytes-to-tolerance vs monolithic in the
# simulator). Wall-clock numbers come from perfbench's
# remote_progressive workload.
progressive-bench:
    cargo test -q --release --test wire_properties --test wserv_remote progressive
    cargo run --release -p bench --bin bench_service

# Downscaled progressive gate: same tests, smoke bench, then every
# section's checks (for progressive_results: schema, error bounds, bytes
# beat monolithic).
progressive-bench-smoke:
    cargo test -q --test wire_properties --test wserv_remote progressive
    WSERV_SMOKE=1 cargo run --release -p bench --bin bench_service
    python3 scripts/bench_service_smoke.py

# Elastic-sharding gate: the elastic end-to-end suite (steals under
# skew, split/merge lifecycle, crash fences, exactly-once books,
# bit-identical replay) and the full-scale elastic_results rows of
# BENCH_service.json (static vs stealing vs split/merge under the
# seeded Zipf stream; the binary asserts elastic imbalance beats static
# and the matched-set p95 never regresses).
elastic-bench:
    cargo test -q --release --test wserv_elastic
    cargo run --release -p bench --bin bench_service

# Downscaled elastic gate: same tests, smoke bench, then every
# section's checks (for elastic_results: schema, controller acted,
# imbalance beats static).
elastic-bench-smoke:
    cargo test -q --test wserv_elastic
    WSERV_SMOKE=1 cargo run --release -p bench --bin bench_service
    python3 scripts/bench_service_smoke.py

# Downscaled service bench as CI runs it: fixed seed, small grid,
# writes target/BENCH_service_smoke.json (the binary asserts the same
# dominance and reproducibility conditions), then every section's
# checks.
serve-bench-smoke:
    WSERV_SMOKE=1 cargo run --release -p bench --bin bench_service
    python3 scripts/bench_service_smoke.py

# Benchmark correctness smoke as CI runs it: every BENCHMARK.json
# workload for 2 seconds through the benchmark's own command; each run
# must exit 0 and report "correct": true (bit-identity with the oracles
# and honest progressive bounds, over the real TCP path).
perfbench-smoke:
    python3 scripts/perfbench_smoke.py
