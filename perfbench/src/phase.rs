//! The measured phase: outcome books, CPU metering, the end-to-end
//! metrics derived from them, and the helpers every workload shares.

use std::time::Instant;

use dwt::{Matrix, Pyramid};

use crate::host;

/// SplitMix64: the seeded generator behind every input and schedule.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in (0, 1), never 0, so `ln` is finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The SplitMix64 output function, also used to pick the traced sample.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Nearest-rank quantile of unsorted samples (`NaN` when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Whether two pyramids hold the same coefficients bit for bit.
pub fn bit_identical(a: &Pyramid, b: &Pyramid) -> bool {
    fn same(a: &Matrix, b: &Matrix) -> bool {
        a.rows() == b.rows()
            && a.cols() == b.cols()
            && a.data()
                .iter()
                .zip(b.data())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }
    same(&a.approx, &b.approx)
        && a.detail.len() == b.detail.len()
        && a.detail
            .iter()
            .zip(&b.detail)
            .all(|(x, y)| same(&x.lh, &y.lh) && same(&x.hl, &y.hl) && same(&x.hh, &y.hh))
}

/// Responses retained per epoch before the load pauses for checking.
/// Bounds the benchmark's own memory next to the program's.
pub const EPOCH_BYTES: usize = 32 << 20;

/// Longest epoch; the phase is a run of epochs until its time is used.
pub const EPOCH_S: f64 = 0.5;

/// What one measured phase saw. Responses are checked between epochs,
/// outside the measured wall and CPU time.
#[derive(Default)]
pub struct Phase {
    /// Per-request latency in seconds; `INFINITY` for a refused or
    /// failed request, which misses every limit.
    pub latencies: Vec<f64>,
    /// Open loop only: how late the generator submitted, in seconds.
    pub lateness: Vec<f64>,
    pub attempted: u64,
    pub ok: u64,
    pub refused: u64,
    pub failed: u64,
    pub ok_px: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Correctness failures (wrong output, a second resolution).
    pub wrong: u64,
    pub first_wrong: Option<String>,
    epochs: Vec<EpochMark>,
}

impl Phase {
    pub fn ok(&mut self, latency_s: f64, px: usize) {
        self.attempted += 1;
        self.ok += 1;
        self.ok_px += px as u64;
        self.latencies.push(latency_s);
    }

    pub fn refused(&mut self) {
        self.attempted += 1;
        self.refused += 1;
        self.latencies.push(f64::INFINITY);
    }

    pub fn failed(&mut self) {
        self.attempted += 1;
        self.failed += 1;
        self.latencies.push(f64::INFINITY);
    }

    /// Record a correctness check; a failure is kept, never dropped.
    pub fn check(&mut self, pass: bool, what: impl FnOnce() -> String) {
        if !pass {
            self.wrong += 1;
            self.first_wrong.get_or_insert_with(what);
        }
    }

    /// Close one epoch of load: add its wall time and the CPU the
    /// process spent since `meter` started. Called before the epoch's
    /// outcomes are recorded, so the counts mark where the epoch starts.
    pub fn close_epoch(&mut self, wall_s: f64, meter: CpuMeter) {
        self.wall_s += wall_s;
        self.cpu_s += host::process_cpu_s() - meter.0;
        self.epochs.push(EpochMark {
            wall_s,
            first: self.latencies.len(),
            ok: self.ok,
            ok_px: self.ok_px,
        });
    }

    /// Consecutive epochs grouped into windows of at least `WINDOW_S`
    /// measured seconds; a shorter tail joins the last window.
    fn windows(&self) -> Vec<Window> {
        let mut out: Vec<Window> = Vec::new();
        let mut open: Option<Window> = None;
        for (i, e) in self.epochs.iter().enumerate() {
            let next = self.epochs.get(i + 1);
            let end = next.map_or(self.latencies.len(), |n| n.first);
            let ok = next.map_or(self.ok, |n| n.ok) - e.ok;
            let px = next.map_or(self.ok_px, |n| n.ok_px) - e.ok_px;
            let w = open.get_or_insert(Window {
                first: e.first,
                end,
                ok: 0,
                ok_px: 0,
                wall_s: 0.0,
            });
            w.end = end;
            w.ok += ok;
            w.ok_px += px;
            w.wall_s += e.wall_s;
            if w.wall_s >= WINDOW_S {
                out.extend(open.take());
            }
        }
        if let Some(tail) = open {
            match out.last_mut() {
                Some(last) => {
                    last.end = tail.end;
                    last.ok += tail.ok;
                    last.ok_px += tail.ok_px;
                    last.wall_s += tail.wall_s;
                }
                None => out.push(tail),
            }
        }
        out
    }

    /// The end-to-end metrics. Latencies and rates are taken per window
    /// and the run reports its better quartile of windows: the 25th
    /// percentile of window latencies and the 75th of window rates.
    /// Hypervisor steal on a shared host only ever slows a window, so
    /// the better quartile tracks the program rather than its
    /// neighbours; the pooled figures are printed beside them.
    pub fn e2e(&self) -> E2e {
        let windows = self.windows();
        let lat = |q: f64| -> Vec<f64> {
            windows
                .iter()
                .map(|w| quantile(&self.latencies[w.first..w.end], q))
                .collect()
        };
        let per_s = |f: &dyn Fn(&Window) -> f64| -> Vec<f64> {
            windows.iter().map(|w| f(w) / w.wall_s).collect()
        };
        E2e {
            latency_p50_ms: quantile(&lat(0.50), 0.25) * 1e3,
            latency_p99_ms: quantile(&lat(0.99), 0.25) * 1e3,
            throughput_rps: quantile(&per_s(&|w| w.ok as f64), 0.75),
            goodput_mpx_s: quantile(&per_s(&|w| w.ok_px as f64 / 1e6), 0.75),
            cpu_ms_per_req: self.cpu_s * 1e3 / self.ok.max(1) as f64,
            error_rate: (self.refused + self.failed) as f64 / self.attempted.max(1) as f64,
            pooled_p50_ms: quantile(&self.latencies, 0.50) * 1e3,
            pooled_p99_ms: quantile(&self.latencies, 0.99) * 1e3,
            pooled_rps: self.ok as f64 / self.wall_s,
            windows: windows.len(),
        }
    }
}

/// Measured seconds per statistics window.
const WINDOW_S: f64 = 0.4;

/// Where an epoch starts in the phase's books, and its wall time.
struct EpochMark {
    wall_s: f64,
    first: usize,
    ok: u64,
    ok_px: u64,
}

/// A run of consecutive epochs: latencies `first..end` and the
/// successes and measured time they span.
struct Window {
    first: usize,
    end: usize,
    ok: u64,
    ok_px: u64,
    wall_s: f64,
}

/// Process CPU seconds at the start of an epoch.
#[derive(Clone, Copy)]
pub struct CpuMeter(f64);

impl CpuMeter {
    pub fn start() -> CpuMeter {
        CpuMeter(host::process_cpu_s())
    }
}

/// The end-to-end metrics of one phase (set-up time and peak RSS are
/// measured per run, not per phase).
#[derive(Clone, Copy)]
pub struct E2e {
    pub latency_p50_ms: f64,
    pub latency_p99_ms: f64,
    pub throughput_rps: f64,
    pub goodput_mpx_s: f64,
    pub cpu_ms_per_req: f64,
    pub error_rate: f64,
    /// Over all samples of the phase, printed beside the windowed ones.
    pub pooled_p50_ms: f64,
    pub pooled_p99_ms: f64,
    pub pooled_rps: f64,
    pub windows: usize,
}

/// Median of `reps` timed set-ups. Every set-up but the last is torn
/// down; the last is returned for the measured phases.
pub fn timed_setup<S>(reps: usize, mut setup: impl FnMut() -> S, teardown: impl Fn(S)) -> (S, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps {
        if let Some(prev) = kept.take() {
            teardown(prev);
        }
        let t = Instant::now();
        let s = setup();
        times.push(t.elapsed().as_secs_f64());
        kept = Some(s);
    }
    (kept.expect("at least one set-up"), median(&times))
}

/// Whether the request with this sequence number is in the traced
/// replay sample (a fixed hash of the sequence number, one in `every`).
pub fn sampled(seq: u64, every: u64) -> bool {
    mix(seq ^ 0x7472_6163_6500_0000).is_multiple_of(every)
}
