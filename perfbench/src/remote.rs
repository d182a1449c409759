//! The remote workloads: `remote_tcp` (monolithic responses) and
//! `remote_progressive` (lossy progressive streaming with mid-stream
//! cancels), each a `RemoteServer` on localhost TCP driven by two
//! closed-loop `RemoteClient` threads.

use std::collections::BTreeMap;
use std::time::Instant;

use dwt::{FilterBank, Matrix};
use dwt_mimd::CheckpointCodec;
use imagery::{landsat_scene, SceneParams};
use wserv::{
    pyramid_max_abs_diff, DecomposeRequest, DecomposeResponse, RemoteClient, RemoteConfig,
    RemoteServer, ServeResult, ServiceConfig, TcpAcceptor, TcpConnector, TransportError,
};

use crate::inproc::Input;
use crate::phase::{
    bit_identical, median, sampled, timed_setup, CpuMeter, Phase, SplitMix64, EPOCH_BYTES, EPOCH_S,
};
use crate::trace::{self, Src, Tracing};
use crate::{host, Args, RunOut, SETUP_REPS};

/// Closed-loop client threads (the host has two vCPUs).
const CLIENTS: usize = 2;

/// Client tolerance on `remote_progressive`: below the coarse planes'
/// largest coefficient and above the codec's own error, so sequences
/// cancel after a few planes.
const PROGRESSIVE_TOLERANCE: f64 = 1.0;

/// `bench_service`'s lossy plane codec: error at most 0.25 + 0.5 / 2.
fn lossy_codec() -> CheckpointCodec {
    CheckpointCodec::WaveletQuant {
        threshold: 0.25,
        step: 0.5,
    }
}

/// Distinct images per shape.
const IMAGES: usize = 4;

/// `remote_tcp` inputs, indexed `bank * IMAGES + image`: 128² scenes
/// under D4, CDF 9/7 and Haar at two levels.
fn tcp_inputs(seed: u64) -> Vec<Input> {
    let banks = [
        FilterBank::daubechies(4).expect("D4 exists"),
        FilterBank::cdf97(),
        FilterBank::haar(),
    ];
    let images: Vec<Matrix> = (0..IMAGES)
        .map(|k| {
            let params = SceneParams {
                seed: seed.wrapping_mul(0x2545_f491).wrapping_add(k as u64),
                ..SceneParams::default()
            };
            landsat_scene(128, 128, params)
        })
        .collect();
    banks
        .iter()
        .flat_map(|bank| {
            images
                .iter()
                .map(|img| Input::new(DecomposeRequest::new(img.clone(), bank.clone(), 2)))
        })
        .collect()
}

/// `remote_progressive` inputs: smooth 128² fields (a seeded-phase
/// sinusoid plus faint texture) under CDF 9/7 at three levels. The
/// smoothness leaves the fine planes near empty after quantization,
/// while the coarse planes stay above the client tolerance.
fn progressive_inputs(seed: u64) -> Vec<Input> {
    let mut rng = SplitMix64(seed ^ 0x7072_6f67);
    let tau = std::f64::consts::TAU;
    (0..IMAGES)
        .map(|_| {
            let (pr, pc) = (rng.unit(), rng.unit());
            let salt = rng.next_u64() % 13;
            let img = Matrix::from_fn(128, 128, |r, c| {
                let (y, x) = (r as f64 / 128.0, c as f64 / 128.0);
                let wave = |periods: f64, amp: f64| {
                    amp * (tau * (periods * y + pr)).sin() * (tau * (periods * x + pc)).sin()
                };
                wave(1.0, 40.0)
                    + wave(10.0, 6.0)
                    + wave(20.0, 1.5)
                    + ((r as u64 * 13 + c as u64 * 7 + salt) % 7) as f64 * 0.03
            });
            Input::new(DecomposeRequest::new(img, FilterBank::cdf97(), 3))
        })
        .collect()
}

struct Client {
    rc: RemoteClient,
    /// Calls made so far; equals the wire id of the next call.
    calls: u64,
    rng: SplitMix64,
    /// Calls that resolved to a service outcome (not a transport error).
    resolved: u64,
}

struct Remote {
    server: RemoteServer,
    clients: Vec<Client>,
    born: Instant,
    warm: Vec<(usize, Result<ServeResult, TransportError>)>,
}

fn start(progressive: bool, inputs: &[Input], warm: &[usize], seed: u64) -> Remote {
    let born = Instant::now();
    let tick = RemoteConfig::default().tick;
    let acceptor = TcpAcceptor::bind("127.0.0.1:0", tick).expect("bind a localhost port");
    let addr = acceptor.local_addr();
    let config = RemoteConfig {
        progressive: progressive.then(lossy_codec),
        ..RemoteConfig::default()
    };
    let server = RemoteServer::start(
        ServiceConfig::default().with_shards(2),
        config,
        Box::new(acceptor),
    )
    .expect("valid server configuration");
    let mut results = Vec::new();
    let clients = (0..CLIENTS)
        .map(|c| {
            let mut rc = RemoteClient::new(Box::new(TcpConnector { addr, tick }), c as u64);
            if progressive {
                rc = rc.with_tolerance(PROGRESSIVE_TOLERANCE);
            }
            // The first call dials and handshakes; one call per shape
            // fills the plan caches.
            for &ix in warm {
                results.push((ix, rc.call(&inputs[ix].req)));
            }
            Client {
                rc,
                calls: warm.len() as u64,
                rng: SplitMix64(seed ^ 0x636c_6965_6e74 ^ c as u64),
                resolved: warm.len() as u64,
            }
        })
        .collect();
    Remote {
        server,
        clients,
        born,
        warm: results,
    }
}

fn stop(mut r: Remote) -> Result<wserv::RemoteMetrics, wserv::ServiceError> {
    for c in &mut r.clients {
        c.rc.goodbye();
    }
    r.server.shutdown()
}

/// Check one resolved response: bit-identical for monolithic delivery;
/// measured error ≤ reported bound ≤ tolerance for progressive.
fn check(
    phase: &mut Phase,
    progressive: bool,
    what: &str,
    resp: &DecomposeResponse,
    input: &Input,
) {
    if progressive {
        let measured = pyramid_max_abs_diff(&resp.pyramid, &input.oracle);
        phase.check(
            measured.is_some_and(|m| m <= resp.error_bound) && resp.error_bound <= PROGRESSIVE_TOLERANCE,
            || {
                format!(
                    "{what}: measured error {measured:?} vs bound {} vs tolerance {PROGRESSIVE_TOLERANCE}",
                    resp.error_bound
                )
            },
        );
    } else {
        phase.check(
            !resp.degraded
                && resp.error_bound == 0.0
                && bit_identical(&resp.pyramid, &input.oracle),
            || format!("{what}: response differs from DwtPlan::decompose"),
        );
    }
}

struct CallRec {
    client: usize,
    wire_id: u64,
    input: usize,
    t0: f64,
    t1: f64,
    res: Result<ServeResult, TransportError>,
    planes: u64,
}

/// Per-call observations of the wire, transport and progressive layers.
#[derive(Default)]
struct RemoteObs {
    encode_s: f64,
    decode_s: f64,
    split_s: f64,
    reassemble_s: f64,
    sampled: u64,
    checksum_ns: Vec<f64>,
    mono_bytes: Vec<f64>,
    residual_s: Vec<f64>,
}

/// The input the `k`-th call of a client sends.
fn pick(progressive: bool, k: u64, rng: &mut SplitMix64) -> usize {
    if progressive {
        rng.below(IMAGES)
    } else {
        (k % 3) as usize * IMAGES + rng.below(IMAGES)
    }
}

/// One epoch: every client calls back to back until the epoch's time or
/// its share of the retained bytes is used. Returns the calls and the
/// epoch's wall time.
fn epoch(r: &mut Remote, progressive: bool, inputs: &[Input]) -> (Vec<CallRec>, f64) {
    let born = r.born;
    let t_epoch = born.elapsed().as_secs_f64();
    let deadline = t_epoch + EPOCH_S;
    let recs: Vec<CallRec> = std::thread::scope(|s| {
        let handles: Vec<_> = r
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, cl)| {
                s.spawn(move || {
                    let mut recs = Vec::new();
                    let mut bytes = 0;
                    while born.elapsed().as_secs_f64() < deadline && bytes < EPOCH_BYTES / CLIENTS {
                        let input = pick(progressive, cl.calls, &mut cl.rng);
                        let planes0 = cl.rc.progressive.planes;
                        let t0 = born.elapsed().as_secs_f64();
                        let res = cl.rc.call(&inputs[input].req);
                        let t1 = born.elapsed().as_secs_f64();
                        cl.resolved += res.is_ok() as u64;
                        recs.push(CallRec {
                            client: c,
                            wire_id: cl.calls,
                            input,
                            t0,
                            t1,
                            res,
                            planes: cl.rc.progressive.planes - planes0,
                        });
                        cl.calls += 1;
                        bytes += inputs[input].px * 8;
                    }
                    recs
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let end = recs.iter().map(|c| c.t1).fold(t_epoch, f64::max);
    (recs, end - t_epoch)
}

fn measure(
    r: &mut Remote,
    progressive: bool,
    inputs: &[Input],
    seconds: f64,
    mut traced: Option<(&mut Tracing, &mut RemoteObs)>,
) -> Phase {
    let max_payload = RemoteConfig::default().max_payload;
    let mut phase = Phase::default();
    while phase.wall_s < seconds {
        let meter = CpuMeter::start();
        let (recs, wall) = epoch(r, progressive, inputs);
        phase.close_epoch(wall, meter);
        for rec in recs {
            let input = &inputs[rec.input];
            let seq = ((rec.client as u64) << 32) | rec.wire_id;
            let resp = match rec.res {
                Ok(Ok(resp)) => resp,
                Ok(Err(rej)) => {
                    phase.refused();
                    if let Some((t, _)) = traced.as_mut() {
                        t.rejection(&rej);
                    }
                    continue;
                }
                Err(e) => {
                    phase.failed();
                    eprintln!("perfbench: call {seq:#x} failed: {e}");
                    continue;
                }
            };
            check(
                &mut phase,
                progressive,
                &format!("call {seq:#x}"),
                &resp,
                input,
            );
            phase.ok(rec.t1 - rec.t0, input.px);
            let Some((t, wire)) = traced.as_mut() else {
                continue;
            };
            let (t0, dur) = (rec.t0, rec.t1 - rec.t0);
            if !sampled(seq, 8) {
                t.response(seq, "call", t0, dur, &[], &resp, None);
                continue;
            }
            let (req_enc, req_dec) = trace::wire_request(rec.wire_id, &input.req, max_payload);
            // The server's full response, rebuilt from the oracle (the
            // client may hold only a partial reassembly).
            let full = DecomposeResponse {
                pyramid: input.oracle.clone(),
                degraded: false,
                error_bound: 0.0,
                ..resp.clone()
            };
            let (_, _, mono) = trace::wire_response(rec.wire_id, &full, max_payload);
            let (split, reassemble, (enc, dec, bytes)) = if progressive {
                let p = trace::progressive_replay(
                    rec.wire_id,
                    &full,
                    lossy_codec(),
                    rec.planes as usize,
                );
                (
                    p.split_s,
                    p.reassemble_s,
                    trace::wire_frames(&p.frames, max_payload),
                )
            } else {
                (
                    0.0,
                    0.0,
                    trace::wire_response(rec.wire_id, &resp, max_payload),
                )
            };
            let wire_req = [("wire.request", Src::Replay, req_enc + req_dec)];
            let (root, end) = t.response(seq, "call", t0, dur, &wire_req, &resp, Some(&input.req));
            let mut tail = Vec::new();
            if progressive {
                tail.push(("progressive.split", Src::Replay, split));
            }
            tail.push(("wire.response", Src::Replay, enc + dec));
            if progressive {
                tail.push(("progressive.reassemble", Src::Replay, reassemble));
            }
            t.spans.chain(seq, root, end, &tail);
            wire.encode_s += req_enc + enc;
            wire.decode_s += req_dec + dec;
            wire.split_s += split;
            wire.reassemble_s += reassemble;
            wire.sampled += 1;
            wire.mono_bytes.push(mono.len() as f64);
            if wire.checksum_ns.len() < 16 {
                wire.checksum_ns.push(trace::checksum_ns_per_byte(&bytes));
            }
            let codec_s = req_enc + req_dec + enc + dec + split + reassemble;
            wire.residual_s
                .push(rec.t1 - rec.t0 - resp.latency_s() - codec_s);
        }
    }
    phase
}

pub fn run(args: &Args, progressive: bool) -> RunOut {
    let inputs = if progressive {
        progressive_inputs(args.seed)
    } else {
        tcp_inputs(args.seed)
    };
    let warm: Vec<usize> = if progressive {
        vec![0]
    } else {
        (0..3).map(|b| b * IMAGES).collect()
    };
    let mut wrong = Vec::new();
    let (mut remote, setup_s) = timed_setup(
        SETUP_REPS,
        || start(progressive, &inputs, &warm, args.seed),
        |r| {
            stop(r).expect("clean shutdown of a set-up repetition");
        },
    );
    let mut warm_phase = Phase::default();
    for (ix, res) in std::mem::take(&mut remote.warm) {
        match res {
            Ok(Ok(resp)) => check(
                &mut warm_phase,
                progressive,
                "warm-up call",
                &resp,
                &inputs[ix],
            ),
            other => wrong.push(format!("warm-up call failed: {other:?}")),
        }
    }
    wrong.extend(warm_phase.first_wrong);

    let steal0 = host::cpu_jiffies();
    let measured = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = measure(&mut remote, progressive, &inputs, measured, None);
    let mut tracing = Tracing::default();
    let mut wire = RemoteObs::default();
    let traced = args.trace.then(|| {
        measure(
            &mut remote,
            progressive,
            &inputs,
            measured,
            Some((&mut tracing, &mut wire)),
        )
    });
    let steal = host::steal_frac(steal0, host::cpu_jiffies());
    let peak_rss_mb = host::peak_rss_mib();

    // Idle share with one connection left open.
    remote.clients[1].rc.goodbye();
    let idle = trace::idle_cpu_frac();
    let born = remote.born;
    let calls: u64 = remote.clients.iter().map(|c| c.calls).sum();
    let resolved: u64 = remote.clients.iter().map(|c| c.resolved).sum();
    let Remote {
        server,
        mut clients,
        ..
    } = remote;
    for c in &mut clients {
        c.rc.goodbye();
    }
    let metrics = server.shutdown();
    let elapsed = born.elapsed().as_secs_f64();
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            wrong.push(format!("server shutdown failed: {e}"));
            wserv::RemoteMetrics::default()
        }
    };
    let snap = &metrics.service;
    let served = snap.completed()
        + wserv::RejectKind::ALL
            .iter()
            .map(|k| snap.rejected(*k))
            .sum::<u64>();
    if served != resolved {
        wrong.push(format!(
            "service books: {served} resolved by the server != {resolved} resolved at the clients"
        ));
    }
    let lanes = trace::lane_sum_over_elapsed(snap, elapsed);

    let mut layers = BTreeMap::new();
    if traced.is_some() {
        let shapes: Vec<&DecomposeRequest> = warm.iter().map(|&i| &inputs[i].req).collect();
        layers = tracing.layers(&shapes, idle, lanes, steal);
        let n = wire.sampled.max(1) as f64;
        let per_call = calls.max(1) as f64;
        let sum = |f: &dyn Fn(&Client) -> f64| clients.iter().map(f).sum::<f64>();
        layers.insert("wire.encode_us_per_req", wire.encode_s * 1e6 / n);
        layers.insert("wire.decode_us_per_req", wire.decode_s * 1e6 / n);
        layers.insert("wire.checksum_ns_per_byte", median(&wire.checksum_ns));
        let bytes_in = sum(&|c| c.rc.transport.bytes_in as f64);
        layers.insert(
            "wire.bytes_per_req",
            (bytes_in + sum(&|c| c.rc.transport.bytes_out as f64)) / per_call,
        );
        layers.insert(
            "wire.ser_s_per_req",
            (sum(&|c| c.rc.transport.ser_s) + metrics.transport.ser_s) / per_call,
        );
        layers.insert("transport.residual_us_p50", median(&wire.residual_s) * 1e6);
        layers.insert(
            "transport.frames_per_req",
            sum(&|c| (c.rc.transport.frames_in + c.rc.transport.frames_out) as f64) / per_call,
        );
        layers.insert(
            "remote.retries_per_req",
            sum(&|c| c.rc.retries as f64) / per_call,
        );
        if progressive {
            let planes = sum(&|c| c.rc.progressive.planes as f64);
            layers.insert("progressive.split_us_per_resp", wire.split_s * 1e6 / n);
            layers.insert(
                "progressive.reassemble_us_per_resp",
                wire.reassemble_s * 1e6 / n,
            );
            layers.insert("progressive.planes_per_resp", planes / per_call);
            layers.insert(
                "progressive.plane_use_frac",
                planes / (metrics.transport.planes_sent.max(1) as f64),
            );
            layers.insert(
                "progressive.bytes_vs_monolithic",
                bytes_in / per_call / median(&wire.mono_bytes),
            );
        }
    }
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
