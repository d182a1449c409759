//! Deterministic discrete-event driver.
//!
//! The simulator reuses the *same* policy state machines as the live
//! server — [`AdmissionQueue`], [`BatchPolicy`] coalescing,
//! [`PlanCache`] — but advances a virtual clock and prices each stage
//! with an analytic [`CostModel`] instead of reading wall time. Two
//! consequences:
//!
//! 1. **Byte-reproducible benchmarks.** Every latency number is a pure
//!    function of (config, cost model, arrival stream); running the
//!    bench twice produces identical JSON.
//! 2. **Grounded outputs.** Transforms still execute for real through
//!    the shared [`crate::shard::execute`] path, so the simulator's
//!    responses carry actual pyramids and the bit-identity invariants
//!    (cache on/off, batch 1/N) are checkable against the engine.
//!
//! There is one open-loop event loop, [`run_sim`], over all shards at
//! once. Arrivals are admitted at their own timestamps before any
//! dispatch at or after them, which reproduces the live ordering. The
//! loop injects the configuration's seeded
//! [`crate::faults::ShardFaultPlan`] and models the live driver's
//! recovery machinery — supervisor restarts with backoff,
//! poisoned-batch quarantine, failover re-routing, degraded-mode
//! responses — and its elastic control plane. A failed shard or an
//! elastic steal changes where *other* shards' work goes, which is why
//! the shards share one loop. [`run_closed_loop`] drives the same
//! shard-side machinery with clients and the wire in the loop. Both are
//! pure functions of their inputs: replaying the same seed is
//! byte-identical.

use std::collections::VecDeque;

use crate::admission::{AdmissionQueue, Admit};
use crate::cache::PlanCache;
use crate::elastic::{BalanceAction, BalanceController, QueuedShape, ShardLoad, ShardMap};
use crate::faults::{WireDir, WireFault, WireFaultPlan};
use crate::metrics::{Histogram, LaneSplit, MetricsSnapshot, ShardMetrics};
use crate::progressive::{split_response, Reassembler};
use crate::remote::RetryPolicy;
use crate::request::{
    DecomposeRequest, DecomposeResponse, Entry, RejectKind, Rejection, ServeResult,
};
use crate::server::ServiceConfig;
use crate::shard;
use crate::transport::TransportError;
use crate::wire::{self, encode_progressive_header, encode_progressive_plane};
use dwt::engine::PlanShape;
use dwt_mimd::CheckpointCodec;

/// Analytic stage costs, loosely calibrated to the measured engine
/// numbers in `BENCH_dwt.json` (the absolute scale matters less than
/// the ratios: plan construction and per-dispatch overhead are each
/// worth tens of microseconds, i.e. comparable to a small transform —
/// which is exactly the regime where caching and batching pay).
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Transform seconds per coefficient-tap (folds in the level-sum
    /// geometric factor).
    pub transform_s_per_coeff_tap: f64,
    /// Fixed plan + workspace construction cost (cache miss).
    pub plan_base_s: f64,
    /// Size-dependent plan construction cost (cache miss).
    pub plan_s_per_coeff: f64,
    /// Fixed per-dispatch overhead (pop, coalesce, wakeup) — the cost
    /// batching amortizes.
    pub dispatch_s: f64,
    /// Response delivery cost per request.
    pub deliver_s_per_request: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            transform_s_per_coeff_tap: 0.45e-9,
            plan_base_s: 20e-6,
            plan_s_per_coeff: 1e-9,
            dispatch_s: 25e-6,
            deliver_s_per_request: 2e-6,
        }
    }
}

impl CostModel {
    /// Transform seconds for one request of `shape`.
    pub fn transform_s(&self, shape: &PlanShape) -> f64 {
        self.transform_s_per_coeff_tap * shape.coeffs() as f64 * shape.filter_len() as f64
    }

    /// Plan construction seconds for `shape`.
    pub fn plan_s(&self, shape: &PlanShape) -> f64 {
        self.plan_base_s + self.plan_s_per_coeff * shape.coeffs() as f64
    }
}

/// Everything one simulated run produces.
#[derive(Debug)]
pub struct SimReport {
    /// One terminal outcome per submitted request, in stream order.
    pub outcomes: Vec<ServeResult>,
    /// Per-shard metrics, same schema as the live server's snapshot.
    /// With elastic sharding, reserve slots that were activated follow
    /// the base shards (never-activated slots have no books to close
    /// and are omitted).
    pub metrics: MetricsSnapshot,
    /// Virtual time at which the last shard went idle.
    pub makespan_s: f64,
    /// The elastic controller's decision log, `(virtual time, action)`
    /// in decision order — empty without [`ServiceConfig::elastic`].
    /// Replaying the same `(config, stream)` reproduces this exactly.
    pub actions: Vec<(f64, BalanceAction)>,
}

impl SimReport {
    /// Completed requests per virtual second.
    pub fn throughput(&self) -> f64 {
        if self.makespan_s > 0.0 {
            self.metrics.completed() as f64 / self.makespan_s
        } else {
            0.0
        }
    }
}

/// One shard of the simulated service.
struct SimShard {
    queue: AdmissionQueue<usize>,
    cache: PlanCache,
    metrics: ShardMetrics,
    /// Virtual time at which the shard's worker is next free.
    t_free: f64,
    /// Shard-local dispatch counter — the fault-injection coordinate,
    /// monotonic across simulated restarts (exactly like the live
    /// driver's shared counter).
    dispatch: u64,
    restarts: u32,
    failed: bool,
}

impl SimShard {
    fn new(config: &ServiceConfig) -> Self {
        SimShard {
            queue: AdmissionQueue::new(config.queue_capacity),
            cache: PlanCache::new(config.cache_capacity, config.engine_threads),
            metrics: ShardMetrics::default(),
            t_free: 0.0,
            dispatch: 0,
            restarts: 0,
            failed: false,
        }
    }
}

/// The server side of a simulation: every shard slot, the routing map,
/// and one outcome slot per request. [`run_sim`] and
/// [`run_closed_loop`] both drive it — they differ only in where
/// arrivals come from and who observes the outcomes.
struct ShardSide<'a> {
    config: &'a ServiceConfig,
    cost: &'a CostModel,
    shards: Vec<SimShard>,
    map: ShardMap,
    outcomes: Vec<Option<ServeResult>>,
}

impl<'a> ShardSide<'a> {
    /// `slots` shard slots (base shards, then elastic reserve) and
    /// `requests` empty outcome slots.
    fn new(config: &'a ServiceConfig, cost: &'a CostModel, slots: usize, requests: usize) -> Self {
        config
            .faults
            .validate(slots)
            .expect("invalid fault plan for this shard count");
        let nshards = config.shards.max(1);
        ShardSide {
            config,
            cost,
            shards: (0..slots).map(|_| SimShard::new(config)).collect(),
            map: ShardMap::new(nshards, slots - nshards),
            outcomes: (0..requests).map(|_| None).collect(),
        }
    }

    /// Validate request `ix` at the door. An invalid request resolves
    /// here, accounted to its shape's home shard; a valid one is handed
    /// back for routing.
    fn screen(&mut self, ix: usize, req: DecomposeRequest) -> Option<DecomposeRequest> {
        match req.validate() {
            Ok(()) => Some(req),
            Err(rejection) => {
                let home = self.map.home(&req.shape());
                self.shards[home].queue.counters.reject(RejectKind::Invalid);
                self.outcomes[ix] = Some(Err(rejection));
                None
            }
        }
    }

    /// Route and admit one screened arrival at its own timestamp.
    /// Routing goes through the [`ShardMap`] (overrides, active set,
    /// ring successors); rejections are accounted to the shape's stable
    /// FNV home, which elastic actions never move.
    fn arrive(&mut self, t: f64, ix: usize, req: DecomposeRequest) {
        let shape = req.shape();
        let home = self.map.home(&shape);
        let Some(target) = self.map.route(&shape, &self.alive()) else {
            let restarts = self.shards[home].restarts;
            self.shards[home]
                .queue
                .counters
                .reject(RejectKind::ShardFailed);
            self.outcomes[ix] = Some(Err(Rejection::ShardFailed {
                shard: home,
                restarts,
            }));
            return;
        };
        let entry = Entry {
            id: ix as u64,
            arrival: t,
            req,
            attempts: 0,
            tag: ix,
        };
        self.admit(target, entry, t);
    }

    fn alive(&self) -> Vec<bool> {
        self.shards.iter().map(|sh| !sh.failed).collect()
    }

    /// The next dispatch `(moment, shard)` across live shards with
    /// queued work; ties go to the lower shard index.
    fn next_dispatch(&self) -> Option<(f64, usize)> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, sh)| !sh.failed && !sh.queue.is_empty())
            .map(|(s, sh)| (sh.t_free, s))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
    }

    /// Admit one entry into `target`'s queue at virtual time `t`,
    /// resolving shed victims and refusals. An idle shard's free time
    /// advances to the admission time (it cannot dispatch work before
    /// the work exists).
    fn admit(&mut self, target: usize, entry: Entry<usize>, t: f64) -> bool {
        let incoming = entry.req.priority;
        let sh = &mut self.shards[target];
        if sh.queue.is_empty() {
            sh.t_free = sh.t_free.max(t);
        }
        match sh.queue.admit(t, entry) {
            Admit::Accepted => true,
            Admit::AcceptedShedding(victim) => {
                sh.metrics.record_lost((t - victim.arrival).max(0.0));
                self.outcomes[victim.tag] = Some(Err(Rejection::Shed { by: incoming }));
                true
            }
            Admit::Rejected(e, rejection) => {
                self.outcomes[e.tag] = Some(Err(rejection));
                false
            }
        }
    }

    /// Re-admit a recovered entry, charging the requeue handoff to
    /// shard `charge` (the shard whose failure caused it).
    fn readmit(&mut self, charge: usize, target: usize, entry: Entry<usize>, t: f64) {
        if self.admit(target, entry, t) {
            self.shards[charge]
                .metrics
                .record_requeue(self.config.supervisor.requeue_s);
        }
    }

    /// Fail shard `s` over: re-route its in-flight (`batch`) and queued
    /// entries to live ring successors; entries with no survivor
    /// resolve [`Rejection::ShardFailed`].
    fn fail_over(&mut self, s: usize, batch: crate::batch::Batch<usize>, t: f64) {
        self.shards[s].failed = true;
        self.shards[s].metrics.failed = true;
        let restarts = self.shards[s].restarts;
        let queued = self.shards[s].queue.drain();
        let alive = self.alive();
        for entry in batch.entries.into_iter().chain(queued) {
            match self.map.route(&entry.req.shape(), &alive) {
                Some(target) => self.readmit(s, target, entry, t),
                None => {
                    self.shards[s]
                        .queue
                        .counters
                        .reject(RejectKind::ShardFailed);
                    self.outcomes[entry.tag] =
                        Some(Err(Rejection::ShardFailed { shard: s, restarts }));
                }
            }
        }
    }

    /// One dispatch on shard `s` at its free time, with fault
    /// injection. `ctrl` (present under elastic sharding) gets the
    /// batch's per-request service time folded into its cost book.
    fn dispatch(&mut self, s: usize, ctrl: Option<&mut BalanceController>) {
        let (config, cost) = (self.config, self.cost);
        let t = self.shards[s].t_free;
        let depth_frac = self.shards[s].queue.len() as f64 / config.queue_capacity.max(1) as f64;
        let pop = self.shards[s].queue.pop_batch(t, &config.batch);
        for e in pop.expired {
            let deadline = e.req.deadline.expect("expired implies a deadline");
            self.shards[s].metrics.record_lost((t - e.arrival).max(0.0));
            self.outcomes[e.tag] = Some(Err(Rejection::DeadlineExpired { deadline, now: t }));
        }
        let Some(batch) = pop.batch else { return };
        let k = self.shards[s].dispatch;
        self.shards[s].dispatch += 1;

        if config.faults.worker_dies(s, k) {
            let restart_no = self.shards[s].restarts + 1;
            if config.supervisor.enabled() && restart_no <= config.supervisor.max_restarts {
                // Supervisor restart: the dead worker's dispatch re-queues
                // (the worker was the suspect, attempts stay), the shard
                // pays the backoff in virtual time.
                self.shards[s].restarts = restart_no;
                let backoff = config.supervisor.backoff_s(restart_no);
                self.shards[s].metrics.record_restart(backoff);
                for entry in batch.entries {
                    self.readmit(s, s, entry, t);
                }
                self.shards[s].t_free = t + backoff;
            } else {
                self.fail_over(s, batch, t);
            }
            return;
        }

        if batch.entries.iter().any(|e| config.faults.poisoned(e.id)) {
            // Execution panics; the quarantine runs in-thread after one
            // dispatch overhead's worth of work.
            if batch.len() == 1 {
                let entry = batch.entries.into_iter().next().expect("len checked");
                self.shards[s].metrics.quarantined += 1;
                self.shards[s].queue.counters.reject(RejectKind::Requeued);
                self.outcomes[entry.tag] = Some(Err(Rejection::Requeued {
                    attempts: entry.attempts + 1,
                }));
            } else {
                for mut entry in batch.entries {
                    entry.attempts += 1;
                    self.readmit(s, s, entry, t);
                }
            }
            self.shards[s].t_free = t + cost.dispatch_s;
            return;
        }

        let peer_failed = self
            .shards
            .iter()
            .enumerate()
            .any(|(i, sh)| i != s && sh.failed);
        let mut done = match shard::execute(&mut self.shards[s].cache, &batch) {
            Ok(done) => done,
            Err(detail) => {
                for entry in batch.entries {
                    self.outcomes[entry.tag] = Some(Err(Rejection::Invalid {
                        detail: detail.clone(),
                    }));
                }
                return;
            }
        };
        let degradation = shard::degrade_batch(
            config.degraded,
            peer_failed,
            depth_frac,
            &batch.entries,
            &mut done.pyramids,
        );
        let batch_size = batch.len();
        let plan_s = if done.cache_hit {
            0.0
        } else {
            cost.plan_s(&batch.shape)
        };
        let transform_s = cost.transform_s(&batch.shape) * batch_size as f64;
        let stall = config.faults.stall_factor(s, k);
        // Price delivery per response: a degraded response ships only
        // surviving coefficients.
        let kept = degradation.iter().fold(0.0, |sum, d| sum + d.kept_frac);
        let deliver_s = cost.deliver_s_per_request * kept;
        // Without a stall, keep the association (and so the rounding)
        // of the committed fault-free rows: no `* 1.0` regrouping, so
        // they stay byte-identical.
        let end = if stall == 1.0 {
            t + cost.dispatch_s + plan_s + transform_s + deliver_s
        } else {
            t + cost.dispatch_s + (plan_s + transform_s) * stall + deliver_s
        };
        let sh = &mut self.shards[s];
        sh.metrics.record_batch(
            t,
            end,
            &batch.arrivals(),
            LaneSplit {
                dispatch_s: cost.dispatch_s,
                plan_s: plan_s * stall,
                transform_s: transform_s * stall,
                deliver_s,
            },
        );
        sh.metrics.degraded_served += degradation.iter().filter(|d| d.degraded).count() as u64;
        if let Some(ctrl) = ctrl {
            // Feed the cost book the per-request service time — the
            // same signal the live workers feed it.
            ctrl.observe(
                shard::shape_key(&batch.shape),
                (end - t) / batch_size as f64,
            );
        }
        sh.t_free = end;
        for ((entry, pyramid), d) in batch
            .entries
            .into_iter()
            .zip(done.pyramids)
            .zip(degradation)
        {
            self.outcomes[entry.tag] = Some(Ok(DecomposeResponse {
                pyramid,
                cache_hit: done.cache_hit,
                batch_size,
                wait_s: (t - entry.arrival).max(0.0),
                service_s: end - t,
                degraded: d.degraded,
                error_bound: d.error_bound,
            }));
        }
    }

    /// Move one already-admitted entry from `from`'s queue into `to`'s.
    /// Counter-neutral on the door books (the entry was accepted once,
    /// at its original shard); an idle target's free time advances to
    /// the migration moment, exactly like [`ShardSide::admit`]'s idle
    /// rule.
    fn migrate(&mut self, from: usize, to: usize, entry: Entry<usize>, t: f64) {
        if self.shards[to].queue.is_empty() {
            self.shards[to].t_free = self.shards[to].t_free.max(t);
        }
        self.shards[to].queue.accept_migrated(entry);
        self.shards[from].metrics.stolen_out += 1;
        self.shards[to].metrics.stolen_in += 1;
    }

    /// One controller step at virtual time `t`: census every slot, ask
    /// for a decision, apply it as queue surgery + map mutation, log it.
    fn elastic_step(&mut self, rt: &mut ElasticRt, t: f64) {
        if !rt.ctrl.ready(t) {
            return;
        }
        let loads: Vec<ShardLoad> = self
            .shards
            .iter()
            .enumerate()
            .map(|(s, sh)| ShardLoad {
                active: self.map.is_active(s),
                failed: sh.failed,
                depth: sh.queue.len(),
                free: sh.queue.free(),
                queued: sh
                    .queue
                    .shape_census()
                    .into_iter()
                    .map(|(shape, count, movable)| QueuedShape {
                        key: shard::shape_key(&shape),
                        shape,
                        count,
                        movable,
                    })
                    .collect(),
            })
            .collect();
        let Some(action) = rt.ctrl.decide(t, &loads) else {
            return;
        };
        match &action {
            BalanceAction::Steal { from, to, key, cap } => {
                let (from, to) = (*from, *to);
                let cap = (*cap).min(self.shards[to].queue.free());
                for entry in self.shards[from].queue.take_shape(*key, cap) {
                    self.migrate(from, to, entry, t);
                }
            }
            BalanceAction::Split { from, to, keys } => {
                let (from, to) = (*from, *to);
                self.map.activate(to);
                rt.activated_at[to] = Some(t);
                rt.ever_active[to] = true;
                self.shards[to].t_free = self.shards[to].t_free.max(t);
                for &key in keys {
                    self.map.set_override(key, to);
                    let cap = self.shards[to].queue.free();
                    for entry in self.shards[from].queue.take_shape(key, cap) {
                        self.migrate(from, to, entry, t);
                    }
                }
                self.shards[from].metrics.splits += 1;
            }
            BalanceAction::Merge { from } => {
                let from = *from;
                for key in self.map.overrides_to(from) {
                    self.map.clear_override(key);
                }
                self.map.retire(from);
                if let Some(t0) = rt.activated_at[from].take() {
                    rt.active_s[from] += t.max(t0) - t0;
                    rt.last_end[from] = rt.last_end[from].max(t).max(self.shards[from].t_free);
                }
                self.shards[from].metrics.merges += 1;
                // Drain the retiring queue losslessly back through the
                // map. The merge threshold keeps this drain tiny
                // (usually empty); should every routable queue be full
                // anyway, the entry resolves a typed QueueFull rather
                // than vanishing.
                let alive = self.alive();
                for entry in self.shards[from].queue.drain() {
                    let routed = self
                        .map
                        .route(&entry.req.shape(), &alive)
                        .filter(|&tgt| self.shards[tgt].queue.free() > 0)
                        .or_else(|| {
                            (0..self.shards.len()).find(|&x| {
                                self.map.is_active(x)
                                    && !self.shards[x].failed
                                    && self.shards[x].queue.free() > 0
                            })
                        });
                    match routed {
                        Some(target) => self.migrate(from, target, entry, t),
                        None => {
                            let depth = self.shards[from].queue.len();
                            self.shards[from]
                                .queue
                                .counters
                                .reject(RejectKind::QueueFull);
                            self.outcomes[entry.tag] = Some(Err(Rejection::QueueFull { depth }));
                        }
                    }
                }
            }
        }
        rt.actions.push((t, action));
    }

    /// Close every shard's books at the end of a run. Returns the
    /// outcome slots, the metrics of every shard that served (base
    /// shards, then activated reserve slots), and the moment the last
    /// of them went idle.
    fn close_books(
        self,
        mut rt: Option<&mut ElasticRt>,
    ) -> (Vec<Option<ServeResult>>, MetricsSnapshot, f64) {
        let nshards = self.config.shards.max(1);
        let mut makespan_s: f64 = 0.0;
        let mut out_shards = Vec::with_capacity(self.shards.len());
        for (s, mut sh) in self.shards.into_iter().enumerate() {
            sh.metrics.queue = sh.queue.counters.clone();
            sh.metrics.absorb_cache(&sh.cache);
            if s < nshards {
                makespan_s = makespan_s.max(sh.t_free);
                sh.metrics.finalize(sh.t_free);
                out_shards.push(sh.metrics);
                continue;
            }
            // Reserve slots: a slot that never activated has no books
            // to close (it routed nothing, served nothing) — including
            // it with completion 0 would misread the whole run as
            // imbalance. Activation always picks the lowest inactive
            // slot, so the omitted slots are a suffix and the emitted
            // indices are stable. An activated slot owes idle time only
            // over its active windows.
            let rt = rt.as_mut().expect("reserve slots exist only with elastic");
            if !rt.ever_active[s] {
                continue;
            }
            let (active_s, end) = match rt.activated_at[s].take() {
                Some(t0) => {
                    let end = sh.t_free.max(t0);
                    (rt.active_s[s] + end - t0, end)
                }
                None => (rt.active_s[s], rt.last_end[s]),
            };
            makespan_s = makespan_s.max(end);
            sh.metrics.finalize_active(active_s, end);
            out_shards.push(sh.metrics);
        }
        (
            self.outcomes,
            MetricsSnapshot { shards: out_shards },
            makespan_s,
        )
    }
}

/// Run the service over a timestamped arrival stream (non-decreasing
/// times, virtual seconds) as one joint multi-shard discrete-event loop
/// and return every outcome plus the metrics.
///
/// The configuration's [`crate::faults::ShardFaultPlan`] is injected
/// with the live driver's semantics, event for event:
///
/// * a worker death scheduled at a dispatch index fires at that shard's
///   k-th dispatch; within the restart budget the dispatch's entries
///   re-queue (attempts unchanged) and the shard pays the exponential
///   backoff in virtual time, both charged to the FaultRecovery lane;
/// * past the budget the shard fails over: queued and in-flight work
///   re-routes to live ring successors ([`shard::route`]), entries with
///   no survivor resolve [`Rejection::ShardFailed`], and subsequent
///   arrivals route around the corpse;
/// * a poisoned batch panics at execution: batchmates re-queue to retry
///   solo (attempts + 1), a solo poison resolves
///   [`Rejection::Requeued`];
/// * stall windows multiply the dispatch's compute time;
/// * with a [`crate::faults::DegradedPolicy`], sub-interactive work on
///   a pressured shard (peer failed, or queue past the high-water
///   fraction) is answered with threshold-quantized detail planes and
///   the policy's error bound, delivery priced by surviving
///   coefficients ([`shard::degrade_batch`]).
///
/// With [`ServiceConfig::elastic`] the balance controller runs after
/// every event at that event's virtual time, and its steals, splits
/// and merges move queued work between shards. With neither faults nor
/// elastic sharding, no shard ever touches another's work. Everything
/// is a pure function of `(config, cost, stream)` — replays are
/// byte-identical.
pub fn run_sim(
    config: &ServiceConfig,
    cost: &CostModel,
    stream: Vec<(f64, DecomposeRequest)>,
) -> SimReport {
    let total = config.total_slots();
    let mut side = ShardSide::new(config, cost, total, stream.len());
    if let Some(e) = &config.elastic {
        e.validate().expect("invalid elastic policy");
    }
    let mut rt: Option<ElasticRt> = config.elastic.map(|policy| ElasticRt::new(policy, total));
    let mut arrivals: VecDeque<(f64, usize, DecomposeRequest)> = VecDeque::new();
    let mut last_t = f64::NEG_INFINITY;
    for (ix, (t, req)) in stream.into_iter().enumerate() {
        assert!(t >= last_t, "arrival stream must be sorted by time");
        last_t = t;
        if let Some(req) = side.screen(ix, req) {
            arrivals.push_back((t, ix, req));
        }
    }

    loop {
        let next_dispatch = side.next_dispatch();
        // Arrivals up to the dispatch moment land first, at their own
        // timestamps — the live submitters' ordering.
        let arrival_first = arrivals
            .front()
            .is_some_and(|&(ta, _, _)| next_dispatch.is_none_or(|(td, _)| ta <= td));
        let now = if arrival_first {
            let (ta, ix, req) = arrivals.pop_front().expect("front just checked");
            side.arrive(ta, ix, req);
            ta
        } else if let Some((td, s)) = next_dispatch {
            side.dispatch(s, rt.as_mut().map(|r| &mut r.ctrl));
            td
        } else {
            break;
        };
        // The controller runs after every event, at that event's
        // virtual time — the sim-side mirror of the live driver's
        // submit-path tick.
        if let Some(rt) = rt.as_mut() {
            side.elastic_step(rt, now);
        }
    }

    let (outcomes, metrics, makespan_s) = side.close_books(rt.as_mut());
    SimReport {
        outcomes: outcomes
            .into_iter()
            .map(|o| o.expect("every request terminates in exactly one outcome"))
            .collect(),
        metrics,
        makespan_s,
        actions: rt.map(|r| r.actions).unwrap_or_default(),
    }
}

/// The elastic control plane's runtime state inside [`run_sim`]: the
/// controller itself, per-slot activation windows (for honest imbalance
/// accounting of reserve-born shards), and the decision log.
struct ElasticRt {
    ctrl: BalanceController,
    /// Start of the slot's current activation window, if active now.
    activated_at: Vec<Option<f64>>,
    /// Seconds of *closed* activation windows accumulated so far.
    active_s: Vec<f64>,
    /// End of the slot's last closed activation window.
    last_end: Vec<f64>,
    /// Whether the slot was ever activated (split at least once).
    ever_active: Vec<bool>,
    actions: Vec<(f64, BalanceAction)>,
}

impl ElasticRt {
    fn new(policy: crate::elastic::ElasticPolicy, total: usize) -> Self {
        ElasticRt {
            ctrl: BalanceController::new(policy),
            activated_at: vec![None; total],
            active_s: vec![0.0; total],
            last_end: vec![0.0; total],
            ever_active: vec![false; total],
            actions: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------
// Closed-loop transport simulation
// ---------------------------------------------------------------------

/// Analytic price of the wire between a client and the service:
/// serialization, framing, transfer, and propagation. All virtual
/// seconds — the closed-loop simulator charges these to the
/// Communication lane so the live benchmark can compare its measured
/// framing cost against the model's.
///
/// Against the live codec: a traced localhost run of 128² requests
/// (262 KB of frames per request, 2-vCPU Xeon) measured encode plus
/// decode at about 0.7 ns/B (49 µs + 132 µs), against the model's
/// `ser_s_per_byte` of 0.4 ns/B. Before protocol v3 it was about
/// 3.5 ns/B, because the FNV-1a checksum alone took 1.4 ns/B on each
/// end; the v3 checksum takes 0.08 ns/B. The constants stay as they
/// are, because the committed simulation rows depend on them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireCostModel {
    /// Encode + decode cost per payload byte (both ends combined).
    pub ser_s_per_byte: f64,
    /// Fixed cost per frame: header, checksum, syscall.
    pub frame_overhead_s: f64,
    /// Transfer cost per payload byte on the wire.
    pub wire_s_per_byte: f64,
    /// Propagation round trip.
    pub rtt_s: f64,
}

impl Default for WireCostModel {
    fn default() -> Self {
        // Loopback-ish numbers: memcpy-rate serialization, ~10 Gb/s
        // transfer, microseconds of per-frame overhead (header,
        // checksum, syscall, scheduler wakeup).
        WireCostModel {
            ser_s_per_byte: 0.4e-9,
            frame_overhead_s: 8e-6,
            wire_s_per_byte: 0.8e-9,
            rtt_s: 60e-6,
        }
    }
}

impl WireCostModel {
    /// One-way cost of a frame carrying `payload_bytes` of payload:
    /// per-frame overhead, serialization + transfer per byte, and half
    /// a round trip of propagation. Progressive delivery prices each
    /// header/plane frame through this with its actual encoded size.
    pub fn frame_payload_s(&self, payload_bytes: f64) -> f64 {
        self.frame_overhead_s
            + payload_bytes * (self.ser_s_per_byte + self.wire_s_per_byte)
            + self.rtt_s / 2.0
    }

    /// One-way cost of a request frame carrying `shape`'s image.
    pub fn request_s(&self, shape: &PlanShape) -> f64 {
        self.frame_payload_s(shape.coeffs() as f64 * 8.0 + 64.0)
    }

    /// One-way cost of a monolithic successful response (a pyramid
    /// holds exactly `coeffs()` coefficients).
    pub fn response_ok_s(&self, shape: &PlanShape) -> f64 {
        self.frame_payload_s(shape.coeffs() as f64 * 8.0 + 64.0)
    }

    /// One-way cost of a rejection response (payload is a short tag).
    pub fn response_err_s(&self) -> f64 {
        self.frame_payload_s(64.0)
    }

    /// Hello + HelloAck exchange on a fresh connection.
    pub fn handshake_s(&self) -> f64 {
        2.0 * self.frame_overhead_s
            + 32.0 * (self.ser_s_per_byte + self.wire_s_per_byte)
            + self.rtt_s
    }

    /// Validate the model. Returns a human-readable reason on failure.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("ser_s_per_byte", self.ser_s_per_byte),
            ("frame_overhead_s", self.frame_overhead_s),
            ("wire_s_per_byte", self.wire_s_per_byte),
            ("rtt_s", self.rtt_s),
        ] {
            if !(v >= 0.0 && v.is_finite()) {
                return Err(format!("{name} = {v} must be finite and >= 0"));
            }
        }
        Ok(())
    }
}

/// Shape of a closed-loop multi-client run: `clients` synchronous
/// clients, each keeping exactly one outstanding request and submitting
/// its next the moment the previous response lands.
#[derive(Debug, Clone)]
pub struct ClosedLoopConfig {
    /// Number of concurrent closed-loop clients.
    pub clients: usize,
    /// Requests each client issues.
    pub reqs_per_client: usize,
    /// Client think time between a delivery and the next submit.
    pub think_s: f64,
    /// Stagger between client start times (client `c` connects at
    /// `c * client_stagger_s`), breaking exact submission ties the way
    /// real clients never tie.
    pub client_stagger_s: f64,
    /// Client-side retry policy — mirror the live clients'.
    pub retry: RetryPolicy,
    /// The wire price model.
    pub wire: WireCostModel,
    /// Seeded wire faults, sharing the live transports' coordinate
    /// space: `conn` is the client id, frame 0 each direction is the
    /// handshake, request `k`'s first attempt is client-to-server
    /// frame `k + 1` when fault-free.
    pub wire_faults: WireFaultPlan,
    /// When set, successful responses stream progressively and each
    /// header/plane frame is priced individually — the simulator's
    /// prediction of [`crate::RemoteConfig::progressive`] plus
    /// [`crate::RemoteClient::with_tolerance`].
    pub progressive: Option<ProgressiveSim>,
}

/// Progressive-delivery knobs of the closed-loop simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressiveSim {
    /// Codec quantizing detail planes on the wire (mirror the server's
    /// [`crate::RemoteConfig::progressive`]).
    pub codec: CheckpointCodec,
    /// Client tolerance: once the running error bound reaches this,
    /// the simulated client cancels the rest of the sequence. `None`
    /// reads every sequence to completion.
    pub tolerance: Option<f64>,
    /// Client byte budget: once this many on-wire response bytes have
    /// been delivered for a call, the simulated client cancels the
    /// rest of the sequence — the mirror of
    /// [`crate::RemoteClient::with_byte_budget`]. Composes with
    /// `tolerance`: whichever predicate fires first cancels.
    pub byte_budget: Option<usize>,
}

impl Default for ClosedLoopConfig {
    fn default() -> Self {
        ClosedLoopConfig {
            clients: 4,
            reqs_per_client: 16,
            think_s: 0.0,
            client_stagger_s: 5e-6,
            retry: RetryPolicy::default(),
            wire: WireCostModel::default(),
            wire_faults: WireFaultPlan::none(),
            progressive: None,
        }
    }
}

impl ClosedLoopConfig {
    /// Validate the configuration. Returns a human-readable reason on
    /// failure.
    pub fn validate(&self) -> Result<(), String> {
        if self.clients == 0 {
            return Err("clients must be >= 1".into());
        }
        for (name, v) in [
            ("think_s", self.think_s),
            ("client_stagger_s", self.client_stagger_s),
        ] {
            if !(v >= 0.0 && v.is_finite()) {
                return Err(format!("{name} = {v} must be finite and >= 0"));
            }
        }
        if let Some(ps) = &self.progressive {
            if !ps.codec.is_valid() {
                return Err("progressive codec parameters must be finite and >= 0".into());
            }
            if let Some(tol) = ps.tolerance {
                if !(tol >= 0.0 && tol.is_finite()) {
                    return Err(format!("tolerance = {tol} must be finite and >= 0"));
                }
            }
            if ps.byte_budget == Some(0) {
                return Err("byte_budget must be >= 1".into());
            }
        }
        self.retry.validate()?;
        self.wire.validate()?;
        self.wire_faults.validate()
    }
}

/// What a closed-loop client observed for one of its requests: the
/// service outcome it received, or the transport error it gave up with
/// after exhausting its retry budget.
pub type ClientOutcome = Result<ServeResult, TransportError>;

/// Everything a closed-loop run produces.
#[derive(Debug)]
pub struct ClosedLoopReport {
    /// Client-observed outcome per request, indexed
    /// `client * reqs_per_client + k`.
    pub outcomes: Vec<ClientOutcome>,
    /// Server-side metrics (the same shape [`run_sim`] reports).
    pub metrics: MetricsSnapshot,
    /// Client-observed end-to-end latency per *delivered* request:
    /// first submit to response in hand, across every retry.
    pub latency: Histogram,
    /// Virtual time at which the last shard went idle or the last
    /// response landed, whichever is later.
    pub makespan_s: f64,
    /// Serialization + framing + transfer seconds across every frame
    /// and handshake — the Communication-lane charge.
    pub comm_s: f64,
    /// Fault-detection, backoff, and stall seconds — the
    /// FaultRecovery-lane charge.
    pub fault_recovery_s: f64,
    /// Client attempts beyond the first, summed over all requests.
    pub retries: u64,
    /// Responses the server re-sent from its resolution book instead
    /// of re-executing.
    pub replays: u64,
    /// Frames placed on the wire in either direction, handshakes and
    /// faulted frames included.
    pub frames: u64,
    /// Progressive detail-plane frames delivered to clients.
    pub planes: u64,
    /// Progressive sequences cut short by a tolerance-met Cancel.
    pub cancels: u64,
    /// Progressive sequences cut short because the client's byte
    /// budget was reached before completion (a subset of `cancels`).
    pub budget_stops: u64,
    /// Response-direction payload bytes placed on the wire (headers,
    /// planes, monolithic responses; faulted frames included).
    pub response_bytes: u64,
    /// Counterfactual payload bytes had every response shipped as one
    /// monolithic frame exactly once — the baseline `response_bytes`
    /// is compared against for bytes-to-tolerance.
    pub monolithic_bytes: u64,
}

impl ClosedLoopReport {
    /// Requests that reached their client, per virtual second.
    pub fn throughput(&self) -> f64 {
        let delivered = self.outcomes.iter().filter(|o| o.is_ok()).count();
        if self.makespan_s > 0.0 {
            delivered as f64 / self.makespan_s
        } else {
            0.0
        }
    }
}

/// Running totals of wire time inside the closed-loop simulator.
#[derive(Default)]
struct WireLedger {
    comm_s: f64,
    fault_s: f64,
    frames: u64,
    retries: u64,
    replays: u64,
    planes: u64,
    cancels: u64,
    budget_stops: u64,
    response_bytes: u64,
    monolithic_bytes: u64,
}

/// Per-client state inside the closed-loop simulator.
struct SimClient {
    /// Next client-to-server frame index (0 was the Hello).
    c2s: u64,
    /// Next server-to-client frame index (0 was the HelloAck).
    s2c: u64,
    /// Request index this client issues next.
    next_k: usize,
    /// Time of the first attempt of the in-flight request.
    first_submit: f64,
    /// Attempts started on the in-flight request (1-based).
    attempts: u32,
    /// Outcome slot the client is waiting on, once its request has
    /// reached the service.
    waiting_ix: Option<usize>,
}

/// What the send half of one attempt concluded.
enum SendHalf {
    /// The frame arrives at the server at this time.
    Arrives(f64),
    /// The frame was lost; the client notices at this time.
    Lost(f64, TransportError),
}

/// Walk one client-to-server frame through the fault plan.
fn send_half(
    cl: &ClosedLoopConfig,
    sc: &mut SimClient,
    conn: u64,
    t: f64,
    one_way: f64,
    acc: &mut WireLedger,
) -> SendHalf {
    let idx = sc.c2s;
    sc.c2s += 1;
    acc.frames += 1;
    match cl.wire_faults.decide(conn, WireDir::ClientToServer, idx) {
        None => {
            acc.comm_s += one_way;
            SendHalf::Arrives(t + one_way)
        }
        Some(WireFault::Stall { seconds }) => {
            acc.comm_s += one_way;
            acc.fault_s += seconds;
            SendHalf::Arrives(t + seconds + one_way)
        }
        Some(WireFault::Reset) | Some(WireFault::Truncate) => {
            // Abortive close / mid-frame FIN: the sender's own stream
            // errors within about a round trip.
            let detect = one_way + cl.wire.rtt_s / 2.0;
            acc.fault_s += detect;
            SendHalf::Lost(t + detect, TransportError::ConnReset)
        }
        Some(WireFault::BitFlip { .. }) => {
            // The server's checksum rejects the frame and aborts the
            // connection; the client sees the reset a round trip later.
            let detect = one_way + cl.wire.rtt_s;
            acc.fault_s += detect;
            SendHalf::Lost(t + detect, TransportError::ConnReset)
        }
    }
}

/// What the response delivery of one attempt concluded.
enum RecvHalf {
    /// The response lands at the client at this time.
    Delivered(f64),
    /// The response was lost; the client notices at this time.
    Lost(f64, TransportError),
}

/// Walk one server-to-client frame through the fault plan.
fn recv_half(
    cl: &ClosedLoopConfig,
    sc: &mut SimClient,
    conn: u64,
    t_res: f64,
    one_way: f64,
    acc: &mut WireLedger,
) -> RecvHalf {
    let idx = sc.s2c;
    sc.s2c += 1;
    acc.frames += 1;
    match cl.wire_faults.decide(conn, WireDir::ServerToClient, idx) {
        None => {
            acc.comm_s += one_way;
            RecvHalf::Delivered(t_res + one_way)
        }
        Some(WireFault::Stall { seconds }) => {
            acc.comm_s += one_way;
            acc.fault_s += seconds;
            RecvHalf::Delivered(t_res + seconds + one_way)
        }
        Some(WireFault::Reset) | Some(WireFault::Truncate) => {
            let detect = one_way + cl.wire.rtt_s / 2.0;
            acc.fault_s += detect;
            RecvHalf::Lost(t_res + detect, TransportError::ConnReset)
        }
        Some(WireFault::BitFlip { .. }) => {
            // The client's own checksum rejects this one on receipt.
            acc.fault_s += one_way;
            RecvHalf::Lost(
                t_res + one_way,
                TransportError::FrameCorrupt {
                    detail: "checksum mismatch".into(),
                },
            )
        }
    }
}

/// Charge one failed attempt: capped exponential backoff, then a fresh
/// connection's handshake (which consumes one frame index in each
/// direction, exactly like the live reconnect — handshake frames are
/// never faulted themselves; the live connect path retries internally).
fn pay_retry(cl: &ClosedLoopConfig, sc: &mut SimClient, t: f64, acc: &mut WireLedger) -> f64 {
    acc.retries += 1;
    let back = cl.retry.backoff_s(sc.attempts);
    sc.attempts += 1;
    sc.c2s += 1; // Hello
    sc.s2c += 1; // HelloAck
    acc.frames += 2;
    let shake = cl.wire.handshake_s();
    acc.fault_s += back;
    acc.comm_s += shake;
    t + back + shake
}

/// Send a request frame until it reaches the server or the attempt
/// budget dies. `Ok` carries the arrival time, `Err` the give-up time
/// and the error the client last saw.
fn send_until_arrives(
    cl: &ClosedLoopConfig,
    sc: &mut SimClient,
    conn: u64,
    mut t: f64,
    one_way: f64,
    acc: &mut WireLedger,
) -> Result<f64, (f64, TransportError)> {
    loop {
        match send_half(cl, sc, conn, t, one_way, acc) {
            SendHalf::Arrives(ta) => return Ok(ta),
            SendHalf::Lost(tl, err) => {
                if sc.attempts >= cl.retry.max_attempts {
                    return Err((tl, err));
                }
                t = pay_retry(cl, sc, tl, acc);
            }
        }
    }
}

/// Recover from a lost response frame: give up once the attempt budget
/// is spent, otherwise back off, reconnect and resend the request,
/// which the server answers by replaying its recorded resolution. `Ok`
/// carries the moment the resend reaches the server, `Err` the give-up
/// time and the error the client last saw.
fn replay_after_loss(
    cl: &ClosedLoopConfig,
    sc: &mut SimClient,
    conn: u64,
    (t_lost, err): (f64, TransportError),
    req_cost: f64,
    acc: &mut WireLedger,
) -> Result<f64, (f64, TransportError)> {
    if sc.attempts >= cl.retry.max_attempts {
        return Err((t_lost, err));
    }
    let t_re = pay_retry(cl, sc, t_lost, acc);
    let t_arr = send_until_arrives(cl, sc, conn, t_re, req_cost, acc)?;
    acc.replays += 1;
    Ok(t_arr)
}

/// The client's stop check after each progressive frame: once the
/// running bound meets its tolerance, or the on-wire bytes it has
/// received reach its budget, an incomplete sequence is cancelled. The
/// Cancel consumes one client-to-server frame index priced as an empty
/// frame. Returns whether the client cancelled.
fn cancel_if_satisfied(
    cl: &ClosedLoopConfig,
    ps: &ProgressiveSim,
    sc: &mut SimClient,
    reasm: &Reassembler,
    got_bytes: u64,
    acc: &mut WireLedger,
) -> bool {
    let tolerance_met = ps.tolerance.is_some_and(|tol| reasm.bound() <= tol);
    let over_budget = ps.byte_budget.is_some_and(|b| got_bytes >= b as u64);
    if !(tolerance_met || over_budget) || reasm.complete() {
        return false;
    }
    sc.c2s += 1; // Cancel frame
    acc.frames += 1;
    acc.comm_s += cl.wire.frame_payload_s(0.0);
    acc.cancels += 1;
    if !tolerance_met {
        acc.budget_stops += 1;
    }
    true
}

/// Deliver a resolved result to its client, replaying on response-path
/// losses: each failed delivery costs a backoff + reconnect + request
/// resend, and the server answers the resend from its resolution book
/// (never by re-executing). `Ok` carries the delivery time and the
/// result *as the client assembled it* — identical to the server's for
/// monolithic delivery, a (possibly partial) reassembly under
/// [`ClosedLoopConfig::progressive`].
///
/// Progressive sequences price every header/plane frame individually
/// through [`WireCostModel::frame_payload_s`] with its actual encoded
/// size; a frame lost mid-sequence costs a backoff + reconnect +
/// request resend and the server replays the *whole* sequence from the
/// header (the reassembly is idempotent). A tolerance-met Cancel
/// consumes one client-to-server frame index priced as an empty frame;
/// unlike live delivery it is never faulted itself — the live client
/// simply drops the connection when a Cancel fails, which costs it
/// nothing the simulator tracks.
fn deliver_result(
    cl: &ClosedLoopConfig,
    sc: &mut SimClient,
    conn: u64,
    shape: &PlanShape,
    t_res: f64,
    res: &ServeResult,
    acc: &mut WireLedger,
) -> Result<(f64, ServeResult), (f64, TransportError)> {
    let req_cost = cl.wire.request_s(shape);
    let mono_bytes = match res {
        Ok(_) => shape.coeffs() as u64 * 8 + 64,
        Err(_) => 64,
    };
    acc.monolithic_bytes += mono_bytes;

    if let (Some(ps), Ok(resp)) = (&cl.progressive, res) {
        let (header, planes) =
            split_response(resp, ps.codec).expect("validated codec splits any response");
        // Payload bytes of the header frame, then of each plane frame.
        let frame_bytes: Vec<u64> = std::iter::once(
            encode_progressive_header(0, &header)
                .expect("header always frames")
                .payload
                .len() as u64,
        )
        .chain(planes.iter().enumerate().map(|(i, p)| {
            encode_progressive_plane(0, p, i + 1 < planes.len())
                .expect("planes always frame")
                .payload
                .len() as u64
        }))
        .collect();
        let mut t = t_res;
        'attempt: loop {
            let mut reasm = Reassembler::new(header.clone()).expect("header geometry is valid");
            // On-wire bytes delivered this attempt (framing included),
            // the same quantity the live client's byte-budget predicate
            // sees.
            let mut got_bytes = 0u64;
            for (j, &bytes) in frame_bytes.iter().enumerate() {
                acc.response_bytes += bytes;
                let one_way = cl.wire.frame_payload_s(bytes as f64);
                match recv_half(cl, sc, conn, t, one_way, acc) {
                    RecvHalf::Delivered(td) => t = td,
                    RecvHalf::Lost(tl, err) => {
                        t = replay_after_loss(cl, sc, conn, (tl, err), req_cost, acc)?;
                        continue 'attempt;
                    }
                }
                got_bytes += bytes + (wire::HEADER_LEN + wire::TRAILER_LEN) as u64;
                if let Some(plane) = j.checked_sub(1).map(|i| &planes[i]) {
                    reasm.apply(plane).expect("planes fit their header");
                    acc.planes += 1;
                }
                if cancel_if_satisfied(cl, ps, sc, &reasm, got_bytes, acc) {
                    break;
                }
            }
            return Ok((t, Ok(reasm.into_response())));
        }
    }

    let one_way = match res {
        Ok(_) => cl.wire.response_ok_s(shape),
        Err(_) => cl.wire.response_err_s(),
    };
    let mut t = t_res;
    loop {
        acc.response_bytes += mono_bytes;
        match recv_half(cl, sc, conn, t, one_way, acc) {
            RecvHalf::Delivered(td) => return Ok((td, res.clone())),
            RecvHalf::Lost(tl, err) => {
                t = replay_after_loss(cl, sc, conn, (tl, err), req_cost, acc)?;
            }
        }
    }
}

/// Move a client past its finished request: record the terminal moment
/// and schedule the next submit (or retire the client).
fn advance_client(
    cl: &ClosedLoopConfig,
    sc: &mut SimClient,
    next_action: &mut Option<f64>,
    t: f64,
) {
    sc.next_k += 1;
    if sc.next_k < cl.reqs_per_client {
        *next_action = Some(t + cl.think_s);
    }
}

/// Turn freshly visible resolutions into deliveries. `now` is the
/// event time that made them visible: a served outcome surfaced by the
/// dispatch starting at `now` resolves at `now + service_s`; rejection
/// moments not carried by the outcome use `now` itself.
#[allow(clippy::too_many_arguments)]
fn drain_resolutions(
    cl: &ClosedLoopConfig,
    shapes: &[PlanShape],
    clients: &mut [SimClient],
    next_action: &mut [Option<f64>],
    outcomes: &[Option<ServeResult>],
    client_out: &mut [Option<ClientOutcome>],
    latency: &mut Histogram,
    acc: &mut WireLedger,
    last_delivery: &mut f64,
    now: f64,
) {
    for c in 0..clients.len() {
        let Some(ix) = clients[c].waiting_ix else {
            continue;
        };
        let Some(res) = outcomes[ix].clone() else {
            continue;
        };
        clients[c].waiting_ix = None;
        let t_res = match &res {
            Ok(resp) => now + resp.service_s,
            Err(Rejection::DeadlineExpired { now: tx, .. }) => *tx,
            Err(_) => now,
        };
        let conn = c as u64;
        match deliver_result(cl, &mut clients[c], conn, &shapes[ix], t_res, &res, acc) {
            Ok((td, assembled)) => {
                latency.record(td - clients[c].first_submit);
                *last_delivery = last_delivery.max(td);
                client_out[ix] = Some(Ok(assembled));
                advance_client(cl, &mut clients[c], &mut next_action[c], td);
            }
            Err((tl, err)) => {
                *last_delivery = last_delivery.max(tl);
                client_out[ix] = Some(Err(err));
                advance_client(cl, &mut clients[c], &mut next_action[c], tl);
            }
        }
    }
}

/// Run the service under a closed-loop multi-client workload with the
/// wire itself in the loop, and return client-observed outcomes and
/// latencies.
///
/// This is the simulator's prediction of what [`crate::RemoteServer`]
/// plus [`crate::RemoteClient`] do under the same
/// `(config, wire_faults)` pair: each client keeps one outstanding
/// request; every frame pays the [`WireCostModel`];
/// [`WireFaultPlan`] faults consume the same
/// `(conn = client id, dir, cumulative frame index)` coordinates the
/// live transports consume. A lost request is resubmitted after capped
/// exponential backoff and a reconnect; a lost *response* is recovered
/// by resubmitting the id and replaying the server's recorded
/// resolution — never by re-executing, exactly the live dedup book's
/// contract.
///
/// The server side is the same shard-side event machinery as [`run_sim`],
/// so the configuration's [`crate::faults::ShardFaultPlan`] applies:
/// worker kills, restart backoff, failover, poisoned batches, and
/// degraded delivery all compose with wire faults. Everything is a
/// pure function of the inputs — replays are byte-identical.
///
/// `requests` supplies each client's stream back to back:
/// `requests[c * reqs_per_client + k]` is client `c`'s `k`-th request.
pub fn run_closed_loop(
    config: &ServiceConfig,
    cost: &CostModel,
    cl: &ClosedLoopConfig,
    requests: Vec<DecomposeRequest>,
) -> ClosedLoopReport {
    // The closed-loop simulator models the wire, not the elastic
    // control plane: there are no reserve slots, routing is the static
    // map (identical to legacy ring routing), and any configured
    // elastic policy is ignored.
    let mut side = ShardSide::new(config, cost, config.shards.max(1), requests.len());
    cl.validate().expect("invalid closed-loop config");
    assert_eq!(
        requests.len(),
        cl.clients * cl.reqs_per_client,
        "need exactly clients * reqs_per_client requests"
    );

    let n = requests.len();
    let shapes: Vec<PlanShape> = requests.iter().map(|r| r.shape()).collect();
    let mut pool: Vec<Option<DecomposeRequest>> = requests.into_iter().map(Some).collect();
    let mut client_out: Vec<Option<ClientOutcome>> = (0..n).map(|_| None).collect();
    let mut latency = Histogram::default();
    let mut acc = WireLedger::default();
    let mut last_delivery: f64 = 0.0;

    // Every client connects (handshake already counted as frame 0 each
    // way by starting the counters at 1) and schedules its first
    // submit.
    let mut clients: Vec<SimClient> = (0..cl.clients)
        .map(|_| SimClient {
            c2s: 1,
            s2c: 1,
            next_k: 0,
            first_submit: 0.0,
            attempts: 0,
            waiting_ix: None,
        })
        .collect();
    acc.frames += 2 * cl.clients as u64;
    acc.comm_s += cl.wire.handshake_s() * cl.clients as f64;
    let mut next_action: Vec<Option<f64>> = (0..cl.clients)
        .map(|c| {
            if cl.reqs_per_client == 0 {
                None
            } else {
                Some(c as f64 * cl.client_stagger_s + cl.wire.handshake_s())
            }
        })
        .collect();
    // Request frames in flight toward the service:
    // (arrival time, send order, outcome ix).
    let mut wire_in: Vec<(f64, u64, usize)> = Vec::new();
    let mut wire_seq = 0u64;

    loop {
        let next_submit = next_action
            .iter()
            .enumerate()
            .filter_map(|(c, t)| t.map(|t| (t, c)))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let next_arrival = wire_in
            .iter()
            .enumerate()
            .min_by(|a, b| a.1 .0.total_cmp(&b.1 .0).then(a.1 .1.cmp(&b.1 .1)))
            .map(|(pos, &(t, _, _))| (t, pos));
        let next_dispatch = side.next_dispatch();

        let ts = next_submit.map(|(t, _)| t).unwrap_or(f64::INFINITY);
        let ta = next_arrival.map(|(t, _)| t).unwrap_or(f64::INFINITY);
        let td = next_dispatch.map(|(t, _)| t).unwrap_or(f64::INFINITY);
        if ts.is_infinite() && ta.is_infinite() && td.is_infinite() {
            break;
        }

        if ts <= ta && ts <= td {
            // A client starts its next request, walking send-half
            // losses closed-form until the frame reaches the service
            // (the server is oblivious until then, so nothing else can
            // interleave).
            let (_, c) = next_submit.expect("ts finite implies a submit");
            next_action[c] = None;
            let conn = c as u64;
            let ix = c * cl.reqs_per_client + clients[c].next_k;
            clients[c].first_submit = ts;
            clients[c].attempts = 1;
            let one_way = cl.wire.request_s(&shapes[ix]);
            match send_until_arrives(cl, &mut clients[c], conn, ts, one_way, &mut acc) {
                Ok(tarr) => {
                    wire_in.push((tarr, wire_seq, ix));
                    wire_seq += 1;
                    clients[c].waiting_ix = Some(ix);
                }
                Err((tl, err)) => {
                    last_delivery = last_delivery.max(tl);
                    client_out[ix] = Some(Err(err));
                    advance_client(cl, &mut clients[c], &mut next_action[c], tl);
                }
            }
        } else {
            let t = if ta <= td {
                // A request frame reaches the service.
                let (_, pos) = next_arrival.expect("ta finite implies an arrival");
                let (t, _, ix) = wire_in.remove(pos);
                let req = pool[ix].take().expect("each request arrives once");
                if let Some(req) = side.screen(ix, req) {
                    side.arrive(t, ix, req);
                }
                t
            } else {
                let (t, s) = next_dispatch.expect("td finite implies a dispatch");
                side.dispatch(s, None);
                t
            };
            drain_resolutions(
                cl,
                &shapes,
                &mut clients,
                &mut next_action,
                &side.outcomes,
                &mut client_out,
                &mut latency,
                &mut acc,
                &mut last_delivery,
                t,
            );
        }
    }

    let (_, metrics, shards_idle_at) = side.close_books(None);
    ClosedLoopReport {
        outcomes: client_out
            .into_iter()
            .map(|o| o.expect("every request terminates at its client"))
            .collect(),
        metrics,
        latency,
        makespan_s: last_delivery.max(shards_idle_at),
        comm_s: acc.comm_s,
        fault_recovery_s: acc.fault_s,
        retries: acc.retries,
        replays: acc.replays,
        frames: acc.frames,
        planes: acc.planes,
        cancels: acc.cancels,
        budget_stops: acc.budget_stops,
        response_bytes: acc.response_bytes,
        monolithic_bytes: acc.monolithic_bytes,
    }
}
