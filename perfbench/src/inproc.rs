//! The in-process workloads: `svc_open` (seeded Poisson open loop of
//! small requests) and `bulk_large` (one closed-loop client sending
//! large scenes), both against a `WaveletService` in this process.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dwt::engine::DwtPlan;
use dwt::{FilterBank, Matrix, Pyramid};
use imagery::{landsat_scene, SceneParams};
use wserv::{
    DecomposeRequest, Priority, RejectKind, ResponseHandle, ServeResult, ServiceConfig,
    WaveletService,
};

use crate::phase::{
    bit_identical, sampled, timed_setup, CpuMeter, Phase, SplitMix64, EPOCH_BYTES, EPOCH_S,
};
use crate::trace::{self, Src, Tracing};
use crate::{host, Args, RunOut, SETUP_REPS};

/// `svc_open` arrival rate: about a third of the ~10k req/s at which two
/// shards on a 2-vCPU host begin to refuse, so a host stall of tens of
/// milliseconds still fits in the admission queues.
const SVC_OPEN_RATE_HZ: f64 = 3000.0;

/// One generated input with its oracle.
pub struct Input {
    pub req: DecomposeRequest,
    pub oracle: Pyramid,
    pub px: usize,
}

impl Input {
    pub fn new(req: DecomposeRequest) -> Input {
        let oracle = DwtPlan::new(
            req.image.rows(),
            req.image.cols(),
            req.bank.clone(),
            req.levels,
            req.mode,
        )
        .and_then(|p| p.decompose(&req.image))
        .expect("generated inputs have valid geometry");
        let px = req.image.rows() * req.image.cols();
        Input { req, oracle, px }
    }
}

/// The sixteen-shape tenant pool of `bench_service`: 32–128² images,
/// Haar, D4, CDF 5/3 and CDF 9/7, one to three levels.
fn shape_pool() -> Vec<(usize, FilterBank, usize)> {
    let haar = FilterBank::haar();
    let d4 = FilterBank::daubechies(4).expect("D4 exists");
    let cdf53 = FilterBank::cdf53();
    let cdf97 = FilterBank::cdf97();
    vec![
        (32, haar.clone(), 1),
        (32, haar.clone(), 2),
        (32, d4.clone(), 1),
        (32, d4.clone(), 2),
        (64, haar.clone(), 1),
        (64, haar, 2),
        (64, d4.clone(), 1),
        (64, d4, 2),
        (32, cdf53.clone(), 1),
        (32, cdf53.clone(), 2),
        (64, cdf53.clone(), 2),
        (96, cdf53, 3),
        (32, cdf97.clone(), 1),
        (64, cdf97.clone(), 2),
        (96, cdf97.clone(), 1),
        (128, cdf97, 3),
    ]
}

/// Distinct images per pool shape.
const IMAGES_PER_SHAPE: usize = 4;

/// Random 8-bit pixels.
fn noise_image(n: usize, rng: &mut SplitMix64) -> Matrix {
    Matrix::from_fn(n, n, |_, _| (rng.unit() * 256.0).floor())
}

fn svc_inputs(seed: u64) -> Vec<Input> {
    let mut rng = SplitMix64(seed ^ 0x7376_635f_6f70_656e);
    shape_pool()
        .into_iter()
        .flat_map(|(n, bank, levels)| {
            (0..IMAGES_PER_SHAPE)
                .map(|_| {
                    Input::new(DecomposeRequest::new(
                        noise_image(n, &mut rng),
                        bank.clone(),
                        levels,
                    ))
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

/// A started service, when it started, and its warm-up outcomes.
struct Started {
    svc: WaveletService,
    born: Instant,
    warm: Vec<ServeResult>,
}

/// Start a service and send one warm-up request per shape, so the plan
/// caches are filled before anything is measured.
fn start_service(shards: usize, warm: &[&Input]) -> Started {
    let born = Instant::now();
    let svc = WaveletService::start(ServiceConfig::default().with_shards(shards));
    let warm = warm
        .iter()
        .map(|input| svc.submit(input.req.clone()).and_then(|h| h.wait()))
        .collect();
    Started { svc, born, warm }
}

/// Check the kept set-up's warm-up outputs, outside the timed set-up.
fn check_warm(started: &mut Started, warm: &[&Input], wrong: &mut Vec<String>) {
    for (res, input) in started.warm.drain(..).zip(warm) {
        if !matches!(&res, Ok(r) if bit_identical(&r.pyramid, &input.oracle)) {
            wrong.push(format!(
                "warm-up request failed or differs: {:?}",
                res.err()
            ));
        }
    }
}

/// Check the service's books against ours at shutdown: everything we
/// attempted resolved exactly once, as a completion or a rejection.
fn close_service(
    s: Started,
    attempted: u64,
    wrong: &mut Vec<String>,
) -> (f64, wserv::MetricsSnapshot) {
    match s.svc.shutdown() {
        Ok(snap) => {
            let elapsed = s.born.elapsed().as_secs_f64();
            let resolved = snap.completed()
                + RejectKind::ALL
                    .iter()
                    .map(|k| snap.rejected(*k))
                    .sum::<u64>();
            if resolved != attempted {
                wrong.push(format!(
                    "service books: {resolved} resolved != {attempted} attempted"
                ));
            }
            (elapsed, snap)
        }
        Err(e) => {
            wrong.push(format!("shutdown failed: {e}"));
            (
                s.born.elapsed().as_secs_f64(),
                wserv::MetricsSnapshot::default(),
            )
        }
    }
}

/// Check a resolved outcome: exact and bit-identical to the oracle, and
/// no second resolution waiting behind it.
fn check_exact(
    phase: &mut Phase,
    seq: u64,
    res: &ServeResult,
    h: &ResponseHandle,
    oracle: &Pyramid,
) {
    if let Ok(resp) = res {
        phase.check(
            !resp.degraded && resp.error_bound == 0.0 && bit_identical(&resp.pyramid, oracle),
            || format!("request {seq}: response differs from DwtPlan::decompose"),
        );
    }
    phase.check(h.try_take().is_none(), || {
        format!("request {seq} resolved more than once")
    });
}

/// The in-process runner both workloads share: timed set-ups, the
/// untraced phase, the traced phase with `--trace 1`, then the books
/// and the per-layer metrics. `load` runs one phase of `seconds`.
fn run_inproc(
    args: &Args,
    shards: usize,
    warm: &[&Input],
    mut load: impl FnMut(&Started, f64, Option<&mut Tracing>) -> Phase,
) -> RunOut {
    let mut wrong = Vec::new();
    let (mut started, setup_s) = timed_setup(
        SETUP_REPS,
        || start_service(shards, warm),
        |s| {
            s.svc
                .shutdown()
                .expect("clean shutdown of a set-up repetition");
        },
    );
    check_warm(&mut started, warm, &mut wrong);

    let steal0 = host::cpu_jiffies();
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = load(&started, seconds, None);
    let mut tracing = Tracing::default();
    let traced = args
        .trace
        .then(|| load(&started, seconds, Some(&mut tracing)));
    let steal = host::steal_frac(steal0, host::cpu_jiffies());
    let peak_rss_mb = host::peak_rss_mib();
    let idle = trace::idle_cpu_frac();
    let attempted =
        warm.len() as u64 + untraced.attempted + traced.as_ref().map_or(0, |p| p.attempted);
    let (elapsed, snap) = close_service(started, attempted, &mut wrong);
    let lanes = trace::lane_sum_over_elapsed(&snap, elapsed);
    let layers = if traced.is_some() {
        let shapes: Vec<&DecomposeRequest> = warm.iter().map(|i| &i.req).collect();
        tracing.layers(&shapes, idle, lanes, steal)
    } else {
        BTreeMap::new()
    };
    RunOut {
        setup_s,
        peak_rss_mb,
        untraced,
        traced,
        layers,
        noise: vec![
            ("steal_frac", steal),
            ("server_idle_cpu_frac", idle),
            ("server_lane_sum_over_elapsed", lanes),
        ],
        spans: tracing.spans,
        wrong,
    }
}

/// A seeded stream of open-loop arrivals: gap to the previous arrival,
/// input index, priority. Epoch boundaries never change the sequence.
struct Arrivals {
    rng: SplitMix64,
    pending: Option<(f64, usize, Priority)>,
    n_inputs: usize,
    seq: u64,
}

impl Arrivals {
    fn next(&mut self) -> (f64, usize, Priority) {
        self.pending.take().unwrap_or_else(|| {
            let gap = -self.rng.unit().ln() / SVC_OPEN_RATE_HZ;
            let input = self.rng.below(self.n_inputs);
            let prio = Priority::ALL[self.rng.below(3)];
            (gap, input, prio)
        })
    }
}

/// Sleep until `due` on the service clock.
fn wait_until(svc: &WaveletService, due: f64) {
    let now = svc.now();
    if due > now {
        std::thread::sleep(Duration::from_secs_f64(due - now));
    }
}

/// Run open-loop epochs until `seconds` of measured wall time is used.
fn open_loop(
    svc: &WaveletService,
    inputs: &[Input],
    arrivals: &mut Arrivals,
    seconds: f64,
    mut tracing: Option<&mut Tracing>,
) -> Phase {
    let mut phase = Phase::default();
    host::tight_timer_slack();
    while phase.wall_s < seconds {
        // Plan the epoch outside the measured time: arrival offsets and
        // owned requests, so the generator only sleeps and submits.
        let mut plan = Vec::new();
        let (mut offset, mut bytes) = (0.0, 0usize);
        loop {
            let (gap, input, prio) = arrivals.next();
            if offset + gap > EPOCH_S || bytes >= EPOCH_BYTES {
                arrivals.pending = Some((gap, input, prio));
                break;
            }
            offset += gap;
            bytes += inputs[input].px * 8;
            let req = inputs[input].req.clone().with_priority(prio);
            plan.push((arrivals.seq, offset, input, req));
            arrivals.seq += 1;
        }
        let meter = CpuMeter::start();
        let base = svc.now();
        let mut subs = Vec::with_capacity(plan.len());
        for (seq, offset, input, req) in plan {
            let due = base + offset;
            wait_until(svc, due);
            let t_sub = svc.now();
            subs.push((seq, input, due, t_sub, svc.submit(req)));
        }
        let done: Vec<_> = subs
            .into_iter()
            .map(|(seq, input, due, t_sub, sub)| {
                let res = sub.map(|h| (h.wait(), h));
                (seq, input, due, t_sub, res)
            })
            .collect();
        let end = done
            .iter()
            .map(|(_, _, due, t_sub, res)| match res {
                Ok((Ok(r), _)) => t_sub + r.latency_s(),
                _ => t_sub.max(*due),
            })
            .fold(base, f64::max);
        phase.close_epoch(end - base, meter);

        for (seq, input, due, t_sub, res) in done {
            phase.lateness.push(t_sub - due);
            let result = match res {
                Ok((result, handle)) => {
                    check_exact(&mut phase, seq, &result, &handle, &inputs[input].oracle);
                    result
                }
                Err(rej) => Err(rej),
            };
            match &result {
                Ok(resp) => {
                    let completion = t_sub + resp.latency_s();
                    phase.ok(completion - due, inputs[input].px);
                    if let Some(t) = tracing.as_deref_mut() {
                        let late = [("gen.late", Src::Measured, t_sub - due)];
                        let replay = sampled(seq, 16).then_some(&inputs[input].req);
                        t.response(seq, "request", due, completion - due, &late, resp, replay);
                    }
                }
                Err(rej) => {
                    phase.refused();
                    if let Some(t) = tracing.as_deref_mut() {
                        t.rejection(rej);
                    }
                }
            }
        }
    }
    phase
}

pub fn svc_open(args: &Args) -> RunOut {
    let inputs = svc_inputs(args.seed);
    let warm: Vec<&Input> = inputs.iter().step_by(IMAGES_PER_SHAPE).collect();
    let mut arrivals = Arrivals {
        rng: SplitMix64(args.seed ^ 0x6172_7269_7661_6c73),
        pending: None,
        n_inputs: inputs.len(),
        seq: 0,
    };
    let mut lateness = Vec::new();
    let mut out = run_inproc(args, 2, &warm, |s, seconds, tracing| {
        let phase = open_loop(&s.svc, &inputs, &mut arrivals, seconds, tracing);
        lateness.push(trace::p50_p99(&phase.lateness, 1e3));
        phase
    });
    // Lateness of the untraced phase goes on the noise line; that of
    // the traced phase is a per-layer metric.
    let (late50, late99) = lateness[0];
    out.noise.push(("gen_lateness_ms_p50", late50));
    out.noise.push(("gen_lateness_ms_p99", late99));
    if let Some(&(t50, t99)) = lateness.get(1) {
        out.layers.insert("gen.lateness_ms_p50", t50);
        out.layers.insert("gen.lateness_ms_p99", t99);
    }
    out
}

/// `bulk_large` inputs: Landsat-like scenes, one per shape of the cycle.
fn bulk_inputs(seed: u64) -> Vec<Input> {
    let shapes = [
        (1024, FilterBank::daubechies(4).expect("D4 exists")),
        (1024, FilterBank::cdf97()),
        (2048, FilterBank::cdf53()),
    ];
    shapes
        .into_iter()
        .enumerate()
        .map(|(k, (n, bank))| {
            let params = SceneParams {
                seed: seed.wrapping_mul(0x9e37_79b9).wrapping_add(k as u64),
                ..SceneParams::default()
            };
            Input::new(DecomposeRequest::new(landsat_scene(n, n, params), bank, 3))
        })
        .collect()
}

/// Run one in-process closed-loop client until `seconds` of measured
/// wall time is used. Each epoch is one call: the response is checked
/// and dropped, and the next input cloned, before the next call starts,
/// as a client that uses each result would. (Holding several large
/// responses across calls would leave the allocator in a state that
/// depends on where a call falls in the epoch.)
fn closed_loop(
    s: &Started,
    inputs: &[Input],
    cursor: &mut u64,
    seconds: f64,
    mut tracing: Option<&mut Tracing>,
) -> Phase {
    let clock = || s.born.elapsed().as_secs_f64();
    let mut phase = Phase::default();
    while phase.wall_s < seconds {
        let seq = *cursor;
        let input = (seq % inputs.len() as u64) as usize;
        let req = inputs[input].req.clone();
        *cursor += 1;
        let meter = CpuMeter::start();
        let t0 = clock();
        let res = s.svc.submit(req).map(|h| (h.wait(), h));
        let t1 = clock();
        phase.close_epoch(t1 - t0, meter);
        let result = match res {
            Ok((result, handle)) => {
                check_exact(&mut phase, seq, &result, &handle, &inputs[input].oracle);
                result
            }
            Err(rej) => Err(rej),
        };
        match &result {
            Ok(resp) => {
                phase.ok(t1 - t0, inputs[input].px);
                if let Some(t) = tracing.as_deref_mut() {
                    let replay = sampled(seq, 3).then_some(&inputs[input].req);
                    t.response(seq, "request", t0, t1 - t0, &[], resp, replay);
                }
            }
            Err(rej) => {
                phase.refused();
                if let Some(t) = tracing.as_deref_mut() {
                    t.rejection(rej);
                }
            }
        }
    }
    phase
}

pub fn bulk_large(args: &Args) -> RunOut {
    let inputs = bulk_inputs(args.seed);
    let warm: Vec<&Input> = inputs.iter().collect();
    let mut cursor = 0;
    run_inproc(args, 1, &warm, |s, seconds, tracing| {
        closed_loop(s, &inputs, &mut cursor, seconds, tracing)
    })
}
