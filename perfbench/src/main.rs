//! `perfbench` — the repository's wall-clock benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one named workload against the public APIs of `wserv`
//! (`WaveletService`, `RemoteServer`/`RemoteClient` over localhost TCP)
//! and `dwt::engine` (`DwtPlan`), checks every response against a
//! direct `DwtPlan::decompose` of the same input, prints every metric by
//! name with its unit, and ends with one JSON line. With `--trace 0`
//! the JSON carries the end-to-end metrics; with `--trace 1` it carries
//! the per-layer metrics of a traced run, and the spans are written to
//! `$CARGO_TARGET_DIR/perfbench/` (default `target/perfbench/`). Exits
//! non-zero if any correctness check fails. See `perfbench/README.md`.

mod host;
mod inproc;
mod phase;
mod remote;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use phase::Phase;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 11;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// End-to-end metrics printed but left out of the JSON (and of
/// `BENCHMARK.json`): `error_rate` is 0 in a clean run, and
/// `latency_p99_ms` on `svc_open` is set by millisecond host stalls
/// (its run-to-run spread exceeds any bound the benchmark may use).
const PRINTED_ONLY: [&str; 2] = ["latency_p99_ms", "error_rate"];

/// Per-layer metrics, in the order `BENCHMARK.json` lists them. A layer
/// absent from a workload's path reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("admission.wait_ms_p50", "ms"),
    ("admission.wait_ms_p99", "ms"),
    ("admission.refused_frac", "fraction"),
    ("batch.mean_size", "count"),
    ("cache.hit_rate", "fraction"),
    ("cache.miss_build_us", "us"),
    ("server.service_ms_p50", "ms"),
    ("server.dispatch_us_p50", "us"),
    ("server.idle_cpu_frac", "fraction"),
    ("server.lane_sum_over_elapsed", "ratio"),
    ("engine.kernel_ns_per_px", "ns"),
    ("engine.alloc_ns_per_px", "ns"),
    ("engine.computed_bytes_per_px", "B"),
    ("engine.copy_bw_pct", "%"),
    ("wire.encode_us_per_req", "us"),
    ("wire.decode_us_per_req", "us"),
    ("wire.checksum_ns_per_byte", "ns"),
    ("wire.bytes_per_req", "B"),
    ("wire.ser_s_per_req", "s"),
    ("transport.residual_us_p50", "us"),
    ("transport.frames_per_req", "count"),
    ("remote.retries_per_req", "count"),
    ("progressive.split_us_per_resp", "us"),
    ("progressive.reassemble_us_per_resp", "us"),
    ("progressive.planes_per_resp", "count"),
    ("progressive.plane_use_frac", "fraction"),
    ("progressive.bytes_vs_monolithic", "ratio"),
    ("host.copy_bw_gbs", "GB/s"),
    ("host.two_job_scaling", "ratio"),
    ("host.steal_frac", "fraction"),
    ("gen.lateness_ms_p50", "ms"),
    ("gen.lateness_ms_p99", "ms"),
    ("trace.residual_us_p50", "us"),
    ("trace.self_us.gen.late", "us"),
    ("trace.self_us.admission.wait", "us"),
    ("trace.self_us.server.service", "us"),
    ("trace.self_us.engine.alloc", "us"),
    ("trace.self_us.engine.kernel", "us"),
    ("trace.self_us.wire.request", "us"),
    ("trace.self_us.wire.response", "us"),
    ("trace.self_us.progressive.split", "us"),
    ("trace.self_us.progressive.reassemble", "us"),
    ("trace.overhead.latency_p50_ms", "ms"),
    ("trace.overhead.latency_p99_ms", "ms"),
    ("trace.overhead.throughput_rps", "req/s"),
    ("trace.overhead.cpu_ms_per_req", "ms"),
];

/// What a workload hands back.
pub struct RunOut {
    pub setup_s: f64,
    /// `VmHWM` right after the measured phases, before the traced run's
    /// host-ceiling probes allocate their arrays.
    pub peak_rss_mb: f64,
    /// The phase the end-to-end metrics come from (tracing off).
    pub untraced: Phase,
    /// The traced phase, present with `--trace 1`.
    pub traced: Option<Phase>,
    /// Per-layer metrics the workload measured (traced run only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Diagnostics printed beside the metrics, never gated on.
    pub noise: Vec<(&'static str, f64)>,
    pub spans: trace::Spans,
    /// Correctness failures found outside a phase (set-up, books).
    pub wrong: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// A number as JSON: a latency that missed every limit reads 1e12.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "0".into()
    } else {
        "1e12".into()
    }
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(host::SPINNER_FLAG) {
        host::run_idle_spinner();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spinners = host::IdleSpinners::start();
    let out = match args.workload.as_str() {
        "svc_open" => inproc::svc_open(&args),
        "bulk_large" => inproc::bulk_large(&args),
        "remote_tcp" => remote::run(&args, false),
        "remote_progressive" => remote::run(&args, true),
        other => {
            eprintln!(
                "perfbench: unknown workload {other} (svc_open, bulk_large, remote_tcp, remote_progressive)"
            );
            return ExitCode::from(2);
        }
    };
    drop(spinners);
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    let u = out.untraced.e2e();
    let e2e: Vec<(&str, f64, &str)> = vec![
        ("setup_s", out.setup_s, "s"),
        ("latency_p50_ms", u.latency_p50_ms, "ms"),
        ("latency_p99_ms", u.latency_p99_ms, "ms"),
        ("throughput_rps", u.throughput_rps, "req/s"),
        ("goodput_mpx_s", u.goodput_mpx_s, "Mpx/s"),
        ("cpu_ms_per_req", u.cpu_ms_per_req, "ms"),
        ("error_rate", u.error_rate, "fraction"),
        ("peak_rss_mb", out.peak_rss_mb, "MiB"),
    ];
    for (name, v, unit) in &e2e {
        let beside = match *name {
            "latency_p50_ms" => format!("(pooled {:.4}; {} windows)", u.pooled_p50_ms, u.windows),
            "latency_p99_ms" => format!(
                "(pooled {:.4}; n={} samples)",
                u.pooled_p99_ms,
                out.untraced.latencies.len()
            ),
            "throughput_rps" => format!("(pooled {:.4})", u.pooled_rps),
            "error_rate" => format!(
                "(refused {}, failed {}, attempted {})",
                out.untraced.refused, out.untraced.failed, out.untraced.attempted
            ),
            _ => String::new(),
        };
        println!("{name:<16} {v:>12.6} {unit:<8} {beside}");
    }
    let noise: Vec<String> = out
        .noise
        .iter()
        .map(|(k, v)| format!("{k}={v:.6}"))
        .collect();
    println!("host_noise {}", noise.join(" "));

    let mut phases = vec![&out.untraced];
    phases.extend(out.traced.as_ref());
    let mut wrong = out.wrong.clone();
    for p in &phases {
        if let Some(w) = &p.first_wrong {
            wrong.push(format!("{} wrong response(s), first: {w}", p.wrong));
        }
    }
    let attempted: u64 = phases.iter().map(|p| p.attempted).sum();
    let failed: u64 = phases.iter().map(|p| p.refused + p.failed).sum();

    let metrics: Vec<(String, f64, String)> = if let Some(t) = &out.traced {
        let mut layers = out.layers.clone();
        let t = t.e2e();
        layers.insert(
            "trace.overhead.latency_p50_ms",
            t.latency_p50_ms - u.latency_p50_ms,
        );
        layers.insert(
            "trace.overhead.latency_p99_ms",
            t.latency_p99_ms - u.latency_p99_ms,
        );
        layers.insert(
            "trace.overhead.throughput_rps",
            t.throughput_rps - u.throughput_rps,
        );
        layers.insert(
            "trace.overhead.cpu_ms_per_req",
            t.cpu_ms_per_req - u.cpu_ms_per_req,
        );
        let path = std::path::PathBuf::from(
            std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()),
        )
        .join("perfbench")
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match out.spans.write(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            ),
        }
        for (name, unit) in PER_LAYER {
            println!(
                "{name:<38} {:>14.4} {unit}",
                layers.get(name).copied().unwrap_or(0.0)
            );
        }
        PER_LAYER
            .iter()
            .map(|(n, unit)| {
                (
                    n.to_string(),
                    layers.get(n).copied().unwrap_or(0.0),
                    unit.to_string(),
                )
            })
            .collect()
    } else {
        e2e.iter()
            .filter(|(n, ..)| !PRINTED_ONLY.contains(n))
            .map(|(n, v, unit)| (n.to_string(), *v, unit.to_string()))
            .collect()
    };

    for w in &wrong {
        eprintln!("perfbench: CORRECTNESS FAILURE: {w}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, unit)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(*v)))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        wrong.is_empty(),
        body.join(", ")
    );
    if wrong.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
