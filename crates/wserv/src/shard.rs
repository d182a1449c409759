//! Shard routing, batch execution, and the per-shard serving policy.
//!
//! Requests are routed by *shape*, not round-robin: every request with
//! a given [`PlanShape`] lands on the same shard, so each plan is built
//! (and cached) on exactly one shard and same-shape requests can always
//! coalesce. The router is a stable FNV-1a hash of the shape — a pure
//! function of the request, identical in the live server and the
//! simulator.
//!
//! # One policy core, two drivers
//!
//! Every decision a shard makes is written here once, and both drivers
//! ([`crate::WaveletService`] and the [`crate::sim`] event loop) call
//! it: the door (refusing an invalid request), settling admissions and
//! deadline expiry (a shed or expired entry's queue seconds go to
//! FaultRecovery), building responses, the requeue charge, the
//! poisoned-batch quarantine, restart and failover, the elastic census
//! with its steal, split and merge queue surgery, and closing the
//! books. A shard's admission queue and metrics live together in one
//! `ShardState`; the drivers reach it through the `Driver` trait, which
//! is where their clocks, threads and locks differ.

use std::hash::{Hash, Hasher};
use std::time::Instant;

use dwt::engine::PlanShape;
use dwt::Pyramid;

use crate::admission::{AdmissionQueue, Admit};
use crate::batch::{Batch, BatchPolicy};
use crate::cache::PlanCache;
use crate::elastic::{BalanceAction, BalanceController, QueuedShape, ShardLoad, ShardMap};
use crate::faults::{DegradedPolicy, SupervisorPolicy};
use crate::metrics::{LaneSplit, ShardMetrics};
use crate::request::{
    DecomposeRequest, DecomposeResponse, Entry, Priority, RejectKind, Rejection, ServeResult,
};

/// FNV-1a, used instead of the std `DefaultHasher` so shard routing is
/// stable by specification rather than by implementation accident.
struct Fnv1a(u64);

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The stable 64-bit routing key of a shape: its FNV-1a hash. This is
/// the coordinate the elastic [`crate::elastic::ShardMap`] keys its
/// overrides and the [`crate::elastic::CostBook`] keys its estimates
/// by, so steal/split decisions and the default hash placement agree on
/// what "the same shape" means.
pub fn shape_key(shape: &PlanShape) -> u64 {
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    shape.hash(&mut h);
    h.finish()
}

/// The shard a shape routes to, in `0..nshards`.
pub fn shard_of(shape: &PlanShape, nshards: usize) -> usize {
    (shape_key(shape) % nshards.max(1) as u64) as usize
}

/// Failover routing: the shape's home shard if it is alive, otherwise
/// the first live successor walking the shard ring. `None` when every
/// shard is down. Pure function of `(shape, alive)`, identical in the
/// live server and the simulator — which is what makes failover
/// deterministic and replayable.
pub fn route(shape: &PlanShape, alive: &[bool]) -> Option<usize> {
    let n = alive.len();
    if n == 0 {
        return None;
    }
    let home = shard_of(shape, n);
    (0..n).map(|i| (home + i) % n).find(|&ix| alive[ix])
}

/// Outcome of executing one batch through a shard's plan cache.
#[derive(Debug)]
pub struct Executed {
    /// One pyramid per batch entry, in dispatch order. Bit-identical to
    /// direct [`dwt::engine::DwtPlan::decompose_into`] calls on the same
    /// inputs — batching and caching never change arithmetic.
    pub pyramids: Vec<Pyramid>,
    /// Whether the plan lookup hit the cache.
    pub cache_hit: bool,
    /// Measured seconds spent building the plan (0 on a cache hit).
    pub plan_s: f64,
}

impl Executed {
    /// The lanes of one measured dispatch before delivery: `exec_s` is
    /// the execution interval, of which the measured plan construction
    /// goes to the plan lane and the rest to the transform lane.
    pub(crate) fn lanes(&self, dispatch_s: f64, exec_s: f64) -> LaneSplit {
        LaneSplit {
            dispatch_s,
            plan_s: self.plan_s,
            transform_s: exec_s - self.plan_s,
            deliver_s: 0.0,
        }
    }
}

/// Execute every request of `batch` with one cached plan.
pub fn execute<T>(cache: &mut PlanCache, batch: &Batch<T>) -> Result<Executed, String> {
    let bank = &batch.entries[0].req.bank;
    let t0 = Instant::now();
    let cache_hit = cache.ensure(&batch.shape, bank)?;
    let plan_s = if cache_hit {
        0.0
    } else {
        t0.elapsed().as_secs_f64()
    };
    let cached = cache.entry_mut(&batch.shape);
    let mut pyramids = Vec::with_capacity(batch.len());
    for entry in &batch.entries {
        let mut pyr = cached.plan.make_pyramid();
        cached
            .plan
            .decompose_into(&entry.req.image, &mut cached.workspace, &mut pyr)
            .map_err(|e| e.to_string())?;
        pyramids.push(pyr);
        cached.uses += 1;
    }
    Ok(Executed {
        pyramids,
        cache_hit,
        plan_s,
    })
}

/// Degrade one response pyramid in place, `WaveletQuant`-style: detail
/// magnitudes at or below the policy threshold are zeroed, survivors
/// are quantized to the policy step, and the LL plane is untouched.
/// The per-coefficient error versus the exact pyramid is bounded by
/// [`DegradedPolicy::error_bound`] by construction. Returns the number
/// of surviving (nonzero) detail coefficients, which is what the
/// delivery cost of a degraded response scales with.
pub fn degrade_pyramid(pyr: &mut Pyramid, policy: &DegradedPolicy) -> usize {
    let mut kept = 0;
    for bands in &mut pyr.detail {
        let (lh, hl, hh) = bands.split_mut();
        for plane in [lh, hl, hh] {
            for v in plane.data_mut() {
                if v.abs() <= policy.threshold {
                    *v = 0.0;
                } else if policy.step > 0.0 {
                    *v = (*v / policy.step).round() * policy.step;
                }
                if *v != 0.0 {
                    kept += 1;
                }
            }
        }
    }
    kept
}

/// How one response of a batch left the degrade step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Degradation {
    /// Whether the response was degraded.
    pub degraded: bool,
    /// The per-coefficient error bound the response carries (0 when
    /// exact).
    pub error_bound: f64,
    /// Fraction of the pyramid's coefficients that survive (1 when
    /// exact) — what the response's delivery cost scales with.
    pub kept_frac: f64,
}

/// The degraded-mode decision for one executed batch on shard `s`,
/// shared by the live worker and the simulator. A shard under pressure
/// — covering for a failed peer (one not `alive`), or with a queue
/// depth fraction at or past the policy's high-water mark — degrades
/// every sub-interactive response in place with [`degrade_pyramid`];
/// interactive work, and every response when the shard is not
/// pressured or `policy` is `None`, stays exact. Returns one
/// [`Degradation`] per response, in batch order.
pub fn degrade_batch<T>(
    policy: Option<DegradedPolicy>,
    alive: &[bool],
    s: usize,
    depth_frac: f64,
    entries: &[Entry<T>],
    pyramids: &mut [Pyramid],
) -> Vec<Degradation> {
    let peer_failed = alive.iter().enumerate().any(|(i, &up)| i != s && !up);
    let policy = policy.filter(|d| peer_failed || depth_frac >= d.queue_high_water);
    let exact = Degradation {
        degraded: false,
        error_bound: 0.0,
        kept_frac: 1.0,
    };
    entries
        .iter()
        .zip(pyramids)
        .map(|(entry, pyramid)| match policy {
            Some(d) if entry.req.priority < Priority::Interactive => {
                let total_detail: usize = pyramid
                    .detail
                    .iter()
                    .map(|b| b.lh.data().len() + b.hl.data().len() + b.hh.data().len())
                    .sum();
                let approx_len = pyramid.approx.data().len();
                let kept = degrade_pyramid(pyramid, &d);
                Degradation {
                    degraded: true,
                    error_bound: d.error_bound(),
                    kept_frac: (approx_len + kept) as f64
                        / (approx_len + total_detail).max(1) as f64,
                }
            }
            _ => exact,
        })
        .collect()
}

/// Terminal outcomes decided while a shard is borrowed (in the live
/// driver, under its lock) and delivered once it is released.
pub(crate) type Outcomes<T> = Vec<(T, ServeResult)>;

/// One shard's admission queue and books. The live driver holds it
/// under the shard's lock, the simulator in its shard slot.
#[derive(Debug)]
pub(crate) struct ShardState<T> {
    pub(crate) queue: AdmissionQueue<T>,
    pub(crate) metrics: ShardMetrics,
}

impl<T> ShardState<T> {
    pub(crate) fn new(queue_capacity: usize) -> Self {
        ShardState {
            queue: AdmissionQueue::new(queue_capacity),
            metrics: ShardMetrics::default(),
        }
    }

    /// Offer `entry` at `now`. A shed victim resolves
    /// [`Rejection::Shed`], its queue seconds charged to FaultRecovery;
    /// a refused entry comes back with its rejection.
    pub(crate) fn admit(
        &mut self,
        now: f64,
        entry: Entry<T>,
        out: &mut Outcomes<T>,
    ) -> Result<(), (T, Rejection)> {
        let incoming = entry.req.priority;
        match self.queue.admit(now, entry) {
            Admit::Accepted => Ok(()),
            Admit::AcceptedShedding(victim) => {
                // The queue guarantees the victim's class is strictly
                // below the arrival's; the rejection records who won.
                debug_assert!(victim.req.priority < incoming);
                self.metrics.record_lost(now - victim.arrival);
                out.push((victim.tag, Err(Rejection::Shed { by: incoming })));
                Ok(())
            }
            Admit::Rejected(entry, rejection) => Err((entry.tag, rejection)),
        }
    }

    /// Pop the next batch at `now`, with the queue's depth fraction
    /// before the pop (what degraded mode reads as pressure). Entries
    /// found past their deadline resolve [`Rejection::DeadlineExpired`],
    /// their queue seconds charged to FaultRecovery.
    pub(crate) fn pop(
        &mut self,
        now: f64,
        policy: &BatchPolicy,
        out: &mut Outcomes<T>,
    ) -> Option<(Batch<T>, f64)> {
        let depth = self.queue.len();
        let depth_frac = depth as f64 / (depth + self.queue.free()) as f64;
        let pop = self.queue.pop_batch(now, policy);
        for entry in pop.expired {
            let deadline = entry.req.deadline.expect("expired implies a deadline");
            self.metrics.record_lost(now - entry.arrival);
            out.push((entry.tag, Err(Rejection::DeadlineExpired { deadline, now })));
        }
        pop.batch.map(|batch| (batch, depth_frac))
    }

    /// Refuse work that no live shard can take, accounted to this
    /// shard, `s`.
    pub(crate) fn shard_failed(&mut self, s: usize) -> Rejection {
        self.queue.counters.reject(RejectKind::ShardFailed);
        Rejection::ShardFailed {
            shard: s,
            restarts: self.metrics.restarts as u32,
        }
    }

    /// This shard's load observation for the balance controller.
    pub(crate) fn load(&self, active: bool, failed: bool) -> ShardLoad {
        ShardLoad {
            active,
            failed,
            depth: self.queue.len(),
            free: self.queue.free(),
            queued: self
                .queue
                .shape_census()
                .into_iter()
                .map(|(shape, count, movable)| QueuedShape {
                    key: shape_key(&shape),
                    shape,
                    count,
                    movable,
                })
                .collect(),
        }
    }

    /// The shard's closed books: its queue and plan-cache counters
    /// folded in, and its idle time over `active_s` seconds of activity
    /// charged, completing at `end` on the driver's clock.
    pub(crate) fn books(&self, cache: &PlanCache, active_s: f64, end: f64) -> ShardMetrics {
        let mut metrics = self.metrics.clone();
        metrics.queue = self.queue.counters.clone();
        metrics.absorb_cache(cache);
        metrics.finalize_active(active_s, end);
        metrics
    }
}

/// What the shared policy needs from a driver: every shard's
/// [`ShardState`], and the driver's own reactions where clocks, threads
/// and locks differ.
pub(crate) trait Driver<T> {
    /// Run `f` on shard `s`'s state (the live driver holds the shard's
    /// lock for the call).
    fn with<R>(&mut self, s: usize, f: impl FnOnce(&mut ShardState<T>) -> R) -> R;

    /// Run `f` on two distinct shards' states at once, so a move
    /// between them is atomic with respect to failover drains.
    fn with_pair<R>(
        &mut self,
        a: usize,
        b: usize,
        f: impl FnOnce(&mut ShardState<T>, &mut ShardState<T>) -> R,
    ) -> R;

    /// Which slots are alive (not failed over).
    fn alive(&self) -> Vec<bool>;

    /// Shard `s` is failing over: routing must treat it as dead before
    /// its queue drains. (Its books record the failure as well.)
    fn failed_over(&mut self, _s: usize) {}

    /// Deliver terminal outcomes.
    fn resolve(&mut self, out: Outcomes<T>);

    /// Work was offered to shard `s` at `now`; `was_idle` says whether
    /// its queue was empty before. The live driver wakes the worker;
    /// the simulator moves an idle shard's clock up to `now`.
    fn offered(&mut self, s: usize, now: f64, was_idle: bool);

    /// Reserve slot `s` was activated by a split at `now`.
    fn activated(&mut self, _s: usize, _now: f64) {}

    /// Reserve slot `s` was retired by a merge at `now`.
    fn retired(&mut self, _s: usize, _now: f64) {}
}

/// The door: a request that fails validation is refused, accounted to
/// its shape's home shard (which `home` names, from the routing map) as
/// [`RejectKind::Invalid`]. `home` is asked only on refusal, so a
/// valid request takes no lock here.
pub(crate) fn screen<T>(
    d: &mut impl Driver<T>,
    req: &DecomposeRequest,
    home: impl FnOnce(&PlanShape) -> usize,
) -> Result<(), Rejection> {
    req.validate().inspect_err(|_| {
        let home = home(&req.shape());
        d.with(home, |st| st.queue.counters.reject(RejectKind::Invalid));
    })
}

/// Where a new arrival of `shape` goes: its routed shard, or — with
/// every shard down — a refusal accounted to its home shard, so the
/// books still balance per shard.
pub(crate) fn route_arrival<T>(
    d: &mut impl Driver<T>,
    map: &ShardMap,
    shape: &PlanShape,
) -> Result<usize, Rejection> {
    let home = map.home(shape);
    map.route(shape, &d.alive())
        .ok_or_else(|| d.with(home, |st| st.shard_failed(home)))
}

/// Offer `entry` to shard `s` at `now` and settle the admission: shed
/// victims and a refused entry resolve. Returns whether it was queued.
pub(crate) fn admit<T>(d: &mut impl Driver<T>, s: usize, entry: Entry<T>, now: f64) -> bool {
    let mut out = Vec::new();
    let (was_idle, admitted) = d.with(s, |st| {
        (st.queue.is_empty(), st.admit(now, entry, &mut out))
    });
    d.offered(s, now, was_idle);
    let queued = admitted.is_ok();
    out.extend(admitted.err().map(|(tag, rejection)| (tag, Err(rejection))));
    d.resolve(out);
    queued
}

/// Re-admit a recovered entry into shard `target` at `now`. When it is
/// queued, the requeue handoff is charged to shard `charge`, the shard
/// responsible for the recovery: itself for quarantine and restart
/// requeues, the failed shard for failover re-routes.
pub(crate) fn readmit<T>(
    d: &mut impl Driver<T>,
    charge: usize,
    target: usize,
    entry: Entry<T>,
    requeue_s: f64,
    now: f64,
) {
    if admit(d, target, entry, now) {
        d.with(charge, |st| st.metrics.record_requeue(requeue_s));
    }
}

/// The poisoned-batch quarantine, after `batch` panicked on shard `s`:
/// batchmates re-queue to retry solo (attempts + 1, so the batcher
/// isolates them); a request that panicked even solo is terminally
/// rejected instead of burning another worker.
pub(crate) fn quarantine<T>(
    d: &mut impl Driver<T>,
    s: usize,
    batch: Batch<T>,
    requeue_s: f64,
    now: f64,
) {
    if batch.len() == 1 {
        let entry = batch.entries.into_iter().next().expect("len checked");
        d.with(s, |st| {
            st.metrics.quarantined += 1;
            st.queue.counters.reject(RejectKind::Requeued);
        });
        let attempts = entry.attempts + 1;
        d.resolve(vec![(entry.tag, Err(Rejection::Requeued { attempts }))]);
        return;
    }
    for mut entry in batch.entries {
        entry.attempts += 1;
        readmit(d, s, s, entry, requeue_s, now);
    }
}

/// Shard `s`'s worker died holding `stranded`. Within the restart
/// budget the shard restarts: the backoff is charged to FaultRecovery
/// and returned, and the stranded entries re-queue with their attempts
/// unchanged (the worker was the suspect, not the requests). Past the
/// budget the shard fails over and `None` is returned: the stranded
/// entries and its queue re-route through `map` to live successors, and
/// entries with no survivor resolve [`Rejection::ShardFailed`].
pub(crate) fn worker_died<T>(
    d: &mut impl Driver<T>,
    map: &ShardMap,
    s: usize,
    stranded: Vec<Entry<T>>,
    policy: &SupervisorPolicy,
    now: f64,
) -> Option<f64> {
    let restart_no = d.with(s, |st| st.metrics.restarts) + 1;
    if restart_no <= u64::from(policy.max_restarts) {
        let backoff = policy.backoff_s(restart_no as u32);
        d.with(s, |st| st.metrics.record_restart(backoff));
        for entry in stranded {
            readmit(d, s, s, entry, policy.requeue_s, now);
        }
        return Some(backoff);
    }
    d.failed_over(s);
    let queued = d.with(s, |st| {
        st.metrics.failed = true;
        st.queue.drain()
    });
    let alive = d.alive();
    let mut out = Vec::new();
    for entry in stranded.into_iter().chain(queued) {
        match map.route(&entry.req.shape(), &alive) {
            Some(target) => readmit(d, s, target, entry, policy.requeue_s, now),
            None => out.push((entry.tag, Err(d.with(s, |st| st.shard_failed(s))))),
        }
    }
    d.resolve(out);
    None
}

/// Resolve every request of an executed batch that dispatched at
/// `start` and completed at `end`, each with its pyramid and its
/// degradation. Returns how many responses were degraded.
pub(crate) fn respond<T>(
    d: &mut impl Driver<T>,
    entries: Vec<Entry<T>>,
    done: Executed,
    degradation: Vec<Degradation>,
    start: f64,
    end: f64,
) -> u64 {
    let degraded = degradation.iter().filter(|x| x.degraded).count() as u64;
    let batch_size = entries.len();
    for ((entry, pyramid), x) in entries.into_iter().zip(done.pyramids).zip(degradation) {
        let response = DecomposeResponse {
            pyramid,
            cache_hit: done.cache_hit,
            batch_size,
            wait_s: (start - entry.arrival).max(0.0),
            service_s: (end - start).max(0.0),
            degraded: x.degraded,
            error_bound: x.error_bound,
        };
        // Wake the waiter before the request (and its image, which can
        // be tens of MiB) is freed, so the free overlaps the client's
        // work instead of delaying it.
        d.resolve(vec![(entry.tag, Ok(response))]);
    }
    degraded
}

/// One balance-controller step at `now`: census every slot, decide,
/// and apply the decision. Returns the action taken, if any.
pub(crate) fn rebalance<T>(
    d: &mut impl Driver<T>,
    map: &mut ShardMap,
    ctrl: &mut BalanceController,
    now: f64,
) -> Option<BalanceAction> {
    if !ctrl.ready(now) {
        return None;
    }
    let alive = d.alive();
    let loads: Vec<ShardLoad> = (0..alive.len())
        .map(|s| d.with(s, |st| st.load(map.is_active(s), !alive[s])))
        .collect();
    let action = ctrl.decide(now, &loads)?;
    apply(d, map, &action, now);
    Some(action)
}

/// Apply one balance decision at `now` as queue surgery plus map
/// mutation. Every moved entry leaves exactly one queue and enters
/// exactly one, so the exactly-once books never see the move.
fn apply<T>(d: &mut impl Driver<T>, map: &mut ShardMap, action: &BalanceAction, now: f64) {
    match *action {
        BalanceAction::Steal { from, to, key, cap } => migrate(d, from, to, key, cap, now),
        BalanceAction::Split { from, to, ref keys } => {
            if !d.alive()[to] {
                return;
            }
            map.activate(to);
            d.activated(to, now);
            for &key in keys {
                map.set_override(key, to);
                migrate(d, from, to, key, usize::MAX, now);
            }
            d.with(from, |st| st.metrics.splits += 1);
        }
        BalanceAction::Merge { from } => {
            for key in map.overrides_to(from) {
                map.clear_override(key);
            }
            map.retire(from);
            d.retired(from, now);
            let queued = d.with(from, |st| {
                st.metrics.merges += 1;
                st.queue.drain()
            });
            // Drain the retiring queue losslessly back through the map:
            // to the routed shard, or else to the first active live
            // shard with room. The merge threshold keeps this drain
            // tiny (usually empty); should every candidate be full, the
            // entry resolves a typed QueueFull rather than vanishing.
            let alive = d.alive();
            let mut out = Vec::new();
            for entry in queued {
                let routed = map.route(&entry.req.shape(), &alive);
                let fallback = (0..alive.len()).filter(|&x| map.is_active(x) && alive[x]);
                let mut entry = Some(entry);
                for target in routed.into_iter().chain(fallback) {
                    let was_idle = d.with_pair(from, target, |src, dst| {
                        let was_idle = dst.queue.is_empty();
                        if dst.queue.free() > 0 {
                            dst.queue
                                .accept_migrated(entry.take().expect("placed once"));
                            src.metrics.stolen_out += 1;
                            dst.metrics.stolen_in += 1;
                        }
                        was_idle
                    });
                    if entry.is_none() {
                        d.offered(target, now, was_idle);
                        break;
                    }
                }
                if let Some(entry) = entry {
                    let rejection = d.with(from, |st| {
                        st.queue.counters.reject(RejectKind::QueueFull);
                        Rejection::QueueFull {
                            depth: st.queue.len(),
                        }
                    });
                    out.push((entry.tag, Err(rejection)));
                }
            }
            d.resolve(out);
        }
    }
}

/// Move up to `cap` queued entries of routing key `key` from shard
/// `from` to shard `to`, bounded by `to`'s free space. A failed shard is
/// never a source or target: the controller already skips failed
/// shards, and this re-check closes the race between deciding and
/// applying in the live driver.
fn migrate<T>(d: &mut impl Driver<T>, from: usize, to: usize, key: u64, cap: usize, now: f64) {
    let alive = d.alive();
    if from == to || !alive[from] || !alive[to] {
        return;
    }
    let (was_idle, moved) = d.with_pair(from, to, |src, dst| {
        let was_idle = dst.queue.is_empty();
        let taken = src.queue.take_shape(key, cap.min(dst.queue.free()));
        let moved = taken.len() as u64;
        for entry in taken {
            dst.queue.accept_migrated(entry);
        }
        src.metrics.stolen_out += moved;
        dst.metrics.stolen_in += moved;
        (was_idle, moved)
    });
    if moved > 0 {
        d.offered(to, now, was_idle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::DecomposeRequest;
    use dwt::{dwt2d, Boundary, FilterBank, Matrix};

    /// A batch of `n` same-shape D4 requests of `size`².
    fn batch(n: usize, size: usize) -> Batch<()> {
        let bank = FilterBank::daubechies(4).unwrap();
        let entries: Vec<Entry<()>> = (0..n)
            .map(|i| Entry {
                id: i as u64,
                arrival: 0.0,
                req: DecomposeRequest::new(
                    Matrix::from_fn(size, size, |r, c| ((r * 7 + c * 3 + i) % 17) as f64),
                    bank.clone(),
                    3,
                ),
                attempts: 0,
                tag: (),
            })
            .collect();
        Batch {
            shape: entries[0].req.shape(),
            entries,
        }
    }

    #[test]
    fn a_cache_hit_charges_no_plan_time() {
        let mut cache = PlanCache::new(4, 1);
        let b = batch(2, 64);
        assert!(!execute(&mut cache, &b).unwrap().cache_hit);
        let done = execute(&mut cache, &b).unwrap();
        assert!(done.cache_hit);
        let lanes = done.lanes(1e-6, 3e-3);
        assert_eq!(lanes.plan_s, 0.0);
        assert_eq!(lanes.transform_s, 3e-3);
    }

    /// On a miss the plan lane is the measured plan construction and the
    /// transform lane the rest of the execution interval — not a fixed
    /// half each. One plan drives eight transforms here, so the measured
    /// plan share is well under half.
    #[test]
    fn a_miss_charges_the_measured_plan_time() {
        let mut cache = PlanCache::new(4, 1);
        let b = batch(8, 128);
        let t0 = Instant::now();
        let done = execute(&mut cache, &b).unwrap();
        let exec_s = t0.elapsed().as_secs_f64();
        assert!(!done.cache_hit);
        let lanes = done.lanes(0.0, exec_s);
        assert_eq!(lanes.plan_s, done.plan_s);
        assert!(lanes.plan_s > 0.0, "a miss builds a plan");
        let sum = lanes.plan_s + lanes.transform_s;
        assert!((sum - exec_s).abs() <= 1e-12 * exec_s, "{sum} vs {exec_s}");
        assert!(
            lanes.plan_s < lanes.transform_s,
            "plan {} s vs transform {} s",
            lanes.plan_s,
            lanes.transform_s
        );
    }

    #[test]
    fn failover_walks_the_ring_to_the_first_survivor() {
        let bank = FilterBank::haar();
        let shape = PlanShape::new(16, 16, &bank, 1, Boundary::Periodic);
        let n = 4;
        let home = shard_of(&shape, n);
        let all_up = vec![true; n];
        assert_eq!(route(&shape, &all_up), Some(home));
        let mut home_down = vec![true; n];
        home_down[home] = false;
        assert_eq!(route(&shape, &home_down), Some((home + 1) % n));
        let mut two_down = vec![true; n];
        two_down[home] = false;
        two_down[(home + 1) % n] = false;
        assert_eq!(route(&shape, &two_down), Some((home + 2) % n));
        assert_eq!(route(&shape, &vec![false; n]), None);
        assert_eq!(route(&shape, &[]), None);
    }

    #[test]
    fn degraded_pyramid_stays_within_the_error_bound() {
        let img = Matrix::from_fn(16, 16, |r, c| ((r * 13 + c * 7) % 23) as f64 - 11.0);
        let bank = FilterBank::haar();
        let exact = dwt2d::decompose(&img, &bank, 2, Boundary::Periodic).unwrap();
        let policy = DegradedPolicy {
            threshold: 1.5,
            step: 0.5,
            queue_high_water: 0.5,
        };
        let mut degraded = exact.clone();
        let kept = degrade_pyramid(&mut degraded, &policy);
        // LL plane is exact.
        assert_eq!(degraded.approx, exact.approx);
        // Detail planes are within the asserted bound, and the
        // threshold really zeroed something.
        let bound = policy.error_bound();
        let mut zeroed = 0;
        for (d, e) in degraded.detail.iter().zip(exact.detail.iter()) {
            for (dp, ep) in [(&d.lh, &e.lh), (&d.hl, &e.hl), (&d.hh, &e.hh)] {
                for (a, b) in dp.data().iter().zip(ep.data().iter()) {
                    assert!((a - b).abs() <= bound + 1e-12, "{a} vs {b} exceeds {bound}");
                    if *a == 0.0 && *b != 0.0 {
                        zeroed += 1;
                    }
                }
            }
        }
        assert!(zeroed > 0, "threshold never fired — test inputs too tame");
        assert!(kept > 0, "everything zeroed — test inputs too tame");
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        let bank = FilterBank::daubechies(4).unwrap();
        for n in [1usize, 2, 3, 8] {
            let mut seen = vec![false; n];
            for size in [8usize, 16, 32, 64, 128] {
                let s = PlanShape::new(size, size, &bank, 2, Boundary::Periodic);
                let shard = shard_of(&s, n);
                assert!(shard < n);
                assert_eq!(shard, shard_of(&s, n), "routing must be deterministic");
                seen[shard] = true;
            }
            if n == 1 {
                assert!(seen[0]);
            }
        }
    }
}
