//! The traced run: spans kept in memory and written out at the end,
//! and the replays that time each layer's public functions from the
//! benchmark's own code (nothing inside the library is instrumented).
//!
//! A request's root span runs from when it was due (open loop) or
//! called (closed loop) to its outcome. Its children are the server's
//! own timestamps (`wait_s`, `service_s`) and, for a fixed sample of
//! requests, replays of the same request through the layer functions,
//! laid end to end in call order. A span's self time is its duration
//! minus its children's; the root's self time is the residual: time
//! no measured or replayed layer accounts for.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use dwt::engine::{DwtPlan, DwtWorkspace, PlanShape};
use dwt::Pyramid;
use dwt_mimd::CheckpointCodec;
use wserv::wire::{self, Frame};
use wserv::{
    split_response, DecomposeRequest, DecomposeResponse, MetricsSnapshot, PlanCache, RejectKind,
    Rejection,
};

use crate::phase::{median, quantile};

#[derive(Clone, Copy, PartialEq)]
pub enum Src {
    /// Timed by the benchmark around a call into the program.
    Measured,
    /// Reported by the program in its response.
    Server,
    /// A replay of the request through a layer's public functions.
    Replay,
}

impl Src {
    fn label(self) -> &'static str {
        match self {
            Src::Measured => "measured",
            Src::Server => "server",
            Src::Replay => "replay",
        }
    }
}

struct Span {
    req: u64,
    parent: Option<usize>,
    name: &'static str,
    src: Src,
    start: f64,
    end: f64,
}

/// Every span of a traced phase, in memory until the run ends.
#[derive(Default)]
pub struct Spans {
    list: Vec<Span>,
}

impl Spans {
    /// Add a span of `dur` seconds starting at `start`; returns its id.
    pub fn add(
        &mut self,
        req: u64,
        parent: Option<usize>,
        name: &'static str,
        src: Src,
        start: f64,
        dur: f64,
    ) -> usize {
        self.list.push(Span {
            req,
            parent,
            name,
            src,
            start,
            end: start + dur.max(0.0),
        });
        self.list.len() - 1
    }

    /// Add children of `parent` laid end to end from `start`; returns
    /// the ids and the end of the last one.
    pub fn chain(
        &mut self,
        req: u64,
        parent: usize,
        start: f64,
        parts: &[(&'static str, Src, f64)],
    ) -> (Vec<usize>, f64) {
        let mut at = start;
        let mut ids = Vec::with_capacity(parts.len());
        for &(name, src, dur) in parts {
            ids.push(self.add(req, Some(parent), name, src, at, dur));
            at += dur.max(0.0);
        }
        (ids, at)
    }

    /// Mean self time per sampled request (µs) for every span name, and
    /// the p50 of the root's self time (the residual, µs). Only requests
    /// with replayed children count: the others have no layer split.
    pub fn self_times(&self) -> (BTreeMap<&'static str, f64>, f64) {
        let mut child_sum = vec![0.0; self.list.len()];
        let mut replayed = vec![false; self.list.len()];
        for s in &self.list {
            if let Some(p) = s.parent {
                child_sum[p] += s.end - s.start;
                if s.src == Src::Replay {
                    // Replays hang off the root or one level below it.
                    replayed[p] = true;
                    if let Some(pp) = self.list[p].parent {
                        replayed[pp] = true;
                    }
                }
            }
        }
        let sampled: std::collections::HashSet<u64> = self
            .list
            .iter()
            .enumerate()
            .filter(|(i, s)| s.parent.is_none() && replayed[*i])
            .map(|(_, s)| s.req)
            .collect();
        let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut residuals = Vec::new();
        for (i, s) in self.list.iter().enumerate() {
            if !sampled.contains(&s.req) {
                continue;
            }
            let own = (s.end - s.start - child_sum[i]).max(0.0);
            if s.parent.is_none() {
                residuals.push(own * 1e6);
            } else {
                *sums.entry(s.name).or_default() += own * 1e6;
            }
        }
        let n = sampled.len().max(1) as f64;
        for v in sums.values_mut() {
            *v /= n;
        }
        (sums, median(&residuals))
    }

    /// Write the spans as JSON lines, times in µs from the phase start.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let origin = self
            .list
            .iter()
            .map(|s| s.start)
            .fold(f64::INFINITY, f64::min);
        let mut out = String::with_capacity(self.list.len() * 110);
        for (i, s) in self.list.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"req\":{},\"parent\":{parent},\"name\":\"{}\",\"src\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.req,
                s.name,
                s.src.label(),
                (s.start - origin) * 1e6,
                (s.end - origin) * 1e6
            );
        }
        std::fs::write(path, out)
    }
}

/// Bench-side plans, one per shape, for replaying the engine work of a
/// request: a fresh pyramid (allocation and first touch) and a warm
/// decomposition into a reused one.
#[derive(Default)]
struct EngineReplay {
    plans: Vec<(PlanShape, DwtPlan, DwtWorkspace, Pyramid)>,
    px: f64,
    fresh_s: f64,
    warm_s: f64,
    /// Bytes the kernel must move at minimum, computed from array sizes.
    bytes: f64,
}

impl EngineReplay {
    /// Replay one request; returns `(fresh, warm)` seconds, where fresh
    /// is `make_pyramid` plus `decompose_into` into it.
    fn run(&mut self, req: &DecomposeRequest) -> (f64, f64) {
        let shape = req.shape();
        let ix = match self.plans.iter().position(|(s, ..)| *s == shape) {
            Some(ix) => ix,
            None => {
                let plan = DwtPlan::new(
                    req.image.rows(),
                    req.image.cols(),
                    req.bank.clone(),
                    req.levels,
                    req.mode,
                )
                .expect("served requests have valid geometry");
                let ws = plan.make_workspace();
                let pyr = plan.make_pyramid();
                self.plans.push((shape, plan, ws, pyr));
                self.plans.len() - 1
            }
        };
        let (_, plan, ws, warm_pyr) = &mut self.plans[ix];
        let t = Instant::now();
        let mut fresh = plan.make_pyramid();
        plan.decompose_into(&req.image, ws, &mut fresh)
            .expect("planned geometry");
        let fresh_s = t.elapsed().as_secs_f64();
        drop(std::hint::black_box(fresh));
        let t = Instant::now();
        plan.decompose_into(std::hint::black_box(&req.image), ws, warm_pyr)
            .expect("planned geometry");
        let warm_s = t.elapsed().as_secs_f64();
        let px = (req.image.rows() * req.image.cols()) as f64;
        self.px += px;
        self.fresh_s += fresh_s;
        self.warm_s += warm_s;
        self.bytes += px * computed_bytes_per_px(req.levels);
        (fresh_s, warm_s)
    }
}

/// Minimum bytes per input pixel a `levels`-deep decomposition moves:
/// each level reads its input once and writes four sub-bands of the
/// same total size, 8-byte coefficients, a quarter as many per level.
fn computed_bytes_per_px(levels: usize) -> f64 {
    (0..levels).map(|l| 16.0 / 4f64.powi(l as i32)).sum()
}

/// Mean µs per `PlanCache::ensure` on a cold cache, over the distinct
/// shapes of `reqs` (median of five builds each).
fn cache_miss_build_us(reqs: &[&DecomposeRequest]) -> f64 {
    let mut shapes: Vec<&DecomposeRequest> = Vec::new();
    for r in reqs {
        if !shapes.iter().any(|s| s.shape() == r.shape()) {
            shapes.push(r);
        }
    }
    let per_shape: Vec<f64> = shapes
        .iter()
        .map(|r| {
            let shape = r.shape();
            let times: Vec<f64> = (0..5)
                .map(|_| {
                    let mut cache = PlanCache::new(16, 1);
                    let t = Instant::now();
                    cache.ensure(&shape, &r.bank).expect("valid shape");
                    let s = t.elapsed().as_secs_f64();
                    drop(std::hint::black_box(cache));
                    s
                })
                .collect();
            median(&times) * 1e6
        })
        .collect();
    per_shape.iter().sum::<f64>() / per_shape.len().max(1) as f64
}

/// Lane total over elapsed shard-seconds: 1.0 when every second of
/// every shard is charged to exactly one lane.
pub fn lane_sum_over_elapsed(snap: &MetricsSnapshot, elapsed_s: f64) -> f64 {
    let sum: f64 = snap
        .shards
        .iter()
        .map(|s| {
            let l = &s.lanes;
            l.useful
                + l.communication
                + l.duplication
                + l.unique_redundancy
                + l.wait
                + l.fault_recovery
        })
        .sum();
    sum / (snap.shards.len().max(1) as f64 * elapsed_s)
}

/// Process CPU share of an idle program over half a second.
pub fn idle_cpu_frac() -> f64 {
    let c0 = crate::host::process_cpu_s();
    let t = Instant::now();
    std::thread::sleep(std::time::Duration::from_millis(500));
    (crate::host::process_cpu_s() - c0) / t.elapsed().as_secs_f64()
}

/// Replay a request frame: `encode_request` + `encode_frame`, then
/// `decode_frame` + `decode_request`. Returns (encode, decode) seconds.
pub fn wire_request(id: u64, req: &DecomposeRequest, max_payload: u32) -> (f64, f64) {
    let t = Instant::now();
    let frame = wire::encode_request(id, req).expect("request encodes");
    let bytes = wire::encode_frame(&frame).expect("frame encodes");
    let enc = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (back, _) = wire::decode_frame(&bytes, max_payload)
        .expect("frame decodes")
        .expect("frame is complete");
    let req_back = wire::decode_request(&back).expect("request decodes");
    let dec = t.elapsed().as_secs_f64();
    drop(std::hint::black_box(req_back));
    (enc, dec)
}

/// Replay a monolithic response: `encode_response` + `encode_frame`,
/// then `decode_frame` + `decode_response`. Returns (encode, decode,
/// on-wire bytes).
pub fn wire_response(id: u64, resp: &DecomposeResponse, max_payload: u32) -> (f64, f64, Vec<u8>) {
    let result = Ok(resp.clone());
    let t = Instant::now();
    let frame = wire::encode_response(id, &result).expect("response encodes");
    let bytes = wire::encode_frame(&frame).expect("frame encodes");
    let enc = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (back, _) = wire::decode_frame(&bytes, max_payload)
        .expect("frame decodes")
        .expect("frame is complete");
    let resp_back = wire::decode_response(&back).expect("response decodes");
    let dec = t.elapsed().as_secs_f64();
    drop(std::hint::black_box(resp_back));
    (enc, dec, bytes)
}

/// Replay the frame codec over already-built progressive frames:
/// `encode_frame` each, then `decode_frame` + `decode_response_body`
/// each. Returns (encode, decode, on-wire bytes).
pub fn wire_frames(frames: &[Frame], max_payload: u32) -> (f64, f64, Vec<u8>) {
    let t = Instant::now();
    let encoded: Vec<Vec<u8>> = frames
        .iter()
        .map(|f| wire::encode_frame(f).expect("frame encodes"))
        .collect();
    let enc = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for bytes in &encoded {
        let (back, _) = wire::decode_frame(bytes, max_payload)
            .expect("frame decodes")
            .expect("frame is complete");
        std::hint::black_box(wire::decode_response_body(&back).expect("body decodes"));
    }
    let dec = t.elapsed().as_secs_f64();
    (enc, dec, encoded.concat())
}

/// `wire::checksum` cost in ns per byte over `bytes`, timed over at
/// least a millisecond of repeats.
pub fn checksum_ns_per_byte(bytes: &[u8]) -> f64 {
    if bytes.is_empty() {
        return 0.0;
    }
    let t = Instant::now();
    let mut reps = 0u64;
    while t.elapsed().as_secs_f64() < 1e-3 {
        std::hint::black_box(wire::checksum(std::hint::black_box(bytes)));
        reps += 1;
    }
    t.elapsed().as_secs_f64() * 1e9 / (reps as f64 * bytes.len() as f64)
}

/// A progressive replay: the split into frames and the client-side
/// reassembly of the first `planes_read` planes.
pub struct ProgressiveReplay {
    pub split_s: f64,
    pub reassemble_s: f64,
    pub frames: Vec<Frame>,
}

/// Replay `split_response` + `encode_progressive_header` / `_plane`
/// for the header and the planes the client read, then
/// `Reassembler::new` + `apply` + `into_response` over them.
pub fn progressive_replay(
    id: u64,
    resp: &DecomposeResponse,
    codec: CheckpointCodec,
    planes_read: usize,
) -> ProgressiveReplay {
    let t = Instant::now();
    let (header, planes) = split_response(resp, codec).expect("response splits");
    let n = planes_read.min(planes.len());
    let mut frames = Vec::with_capacity(n + 1);
    frames.push(wire::encode_progressive_header(id, &header).expect("header encodes"));
    for (i, p) in planes[..n].iter().enumerate() {
        let more = i + 1 < planes.len();
        frames.push(wire::encode_progressive_plane(id, p, more).expect("plane encodes"));
    }
    let split_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut r = wserv::Reassembler::new(header).expect("header is valid");
    for p in &planes[..n] {
        r.apply(p).expect("plane applies");
    }
    std::hint::black_box(r.into_response());
    let reassemble_s = t.elapsed().as_secs_f64();
    ProgressiveReplay {
        split_s,
        reassemble_s,
        frames,
    }
}

/// p50 and p99 of a sample, in the given scale.
pub fn p50_p99(samples: &[f64], scale: f64) -> (f64, f64) {
    (
        quantile(samples, 0.5) * scale,
        quantile(samples, 0.99) * scale,
    )
}

/// Everything a traced phase collects: spans, the server's reported
/// timestamps and counters, and the engine replays.
#[derive(Default)]
pub struct Tracing {
    pub spans: Spans,
    replay: EngineReplay,
    wait_s: Vec<f64>,
    service_s: Vec<f64>,
    dispatch_s: Vec<f64>,
    batch_sum: f64,
    hits: u64,
    responses: u64,
    /// QueueFull, Shed and DeadlineExpired outcomes.
    admission_refused: u64,
    attempted: u64,
}

impl Tracing {
    pub fn rejection(&mut self, r: &Rejection) {
        self.attempted += 1;
        if matches!(
            r.kind(),
            RejectKind::QueueFull | RejectKind::Shed | RejectKind::DeadlineExpired
        ) {
            self.admission_refused += 1;
        }
    }

    /// Record a successful response: a root span named `root` of `dur`
    /// seconds from `start`, the `lead` spans, then the server's
    /// `wait_s` and `service_s`. With `replay`, the request is replayed
    /// through the engine and the replay hangs under the service span,
    /// scaled by the batch size (`service_s` covers the whole batch), so
    /// the service span's self time is the dispatch. Returns the root id
    /// and where the server spans end.
    #[allow(clippy::too_many_arguments)]
    pub fn response(
        &mut self,
        req_id: u64,
        root: &'static str,
        start: f64,
        dur: f64,
        lead: &[(&'static str, Src, f64)],
        resp: &DecomposeResponse,
        replay: Option<&DecomposeRequest>,
    ) -> (usize, f64) {
        self.attempted += 1;
        self.responses += 1;
        self.wait_s.push(resp.wait_s);
        self.service_s.push(resp.service_s);
        self.batch_sum += resp.batch_size as f64;
        self.hits += resp.cache_hit as u64;
        let root = self
            .spans
            .add(req_id, None, root, Src::Measured, start, dur);
        let mut parts = lead.to_vec();
        parts.push(("admission.wait", Src::Server, resp.wait_s));
        parts.push(("server.service", Src::Server, resp.service_s));
        let (ids, end) = self.spans.chain(req_id, root, start, &parts);
        if let Some(req) = replay {
            let (fresh, warm) = self.replay.run(req);
            let k = resp.batch_size as f64;
            self.spans.chain(
                req_id,
                ids[ids.len() - 1],
                end - resp.service_s,
                &[
                    ("engine.alloc", Src::Replay, k * (fresh - warm)),
                    ("engine.kernel", Src::Replay, k * warm),
                ],
            );
            self.dispatch_s.push(resp.service_s - k * fresh);
        }
        (root, end)
    }

    /// Per-layer metrics every workload has: admission, batching, the
    /// plan cache, the server, the engine with its host ceiling, host
    /// noise, and the span self times and residual.
    pub fn layers(
        &self,
        shapes: &[&DecomposeRequest],
        idle: f64,
        lanes: f64,
        steal: f64,
    ) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        let (w50, w99) = p50_p99(&self.wait_s, 1e3);
        out.insert("admission.wait_ms_p50", w50);
        out.insert("admission.wait_ms_p99", w99);
        out.insert(
            "admission.refused_frac",
            self.admission_refused as f64 / self.attempted.max(1) as f64,
        );
        let n = self.responses.max(1) as f64;
        out.insert("batch.mean_size", self.batch_sum / n);
        out.insert("cache.hit_rate", self.hits as f64 / n);
        out.insert("cache.miss_build_us", cache_miss_build_us(shapes));
        out.insert("server.service_ms_p50", median(&self.service_s) * 1e3);
        out.insert("server.dispatch_us_p50", median(&self.dispatch_s) * 1e6);
        out.insert("server.idle_cpu_frac", idle);
        out.insert("server.lane_sum_over_elapsed", lanes);

        let r = &self.replay;
        let px = r.px.max(1.0);
        out.insert("engine.kernel_ns_per_px", r.warm_s * 1e9 / px);
        out.insert("engine.alloc_ns_per_px", (r.fresh_s - r.warm_s) * 1e9 / px);
        out.insert("engine.computed_bytes_per_px", r.bytes / px);
        let copy = crate::host::copy_bandwidth_gbs();
        out.insert("host.copy_bw_gbs", copy);
        out.insert(
            "engine.copy_bw_pct",
            100.0 * r.bytes / r.warm_s.max(1e-12) / 1e9 / copy,
        );
        out.insert("host.two_job_scaling", crate::host::two_job_scaling());
        out.insert("host.steal_frac", steal);

        let (selfs, residual) = self.spans.self_times();
        out.insert("trace.residual_us_p50", residual);
        for (name, us) in selfs {
            let key = format!("trace.self_us.{name}");
            if let Some((k, _)) = crate::PER_LAYER.iter().find(|(k, _)| *k == key) {
                out.insert(k, us);
            }
        }
        out
    }
}
