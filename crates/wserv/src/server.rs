//! The live, threaded service driver.
//!
//! [`WaveletService`] owns one worker thread per shard. Submitters hash
//! the request's shape to a shard (walking the ring past failed shards
//! — see [`shard::route`]), admit it under that shard's lock, and get
//! back a [`ResponseHandle`] that resolves to exactly one
//! [`ServeResult`]. Workers pop coalesced batches, execute them through
//! the shard's [`PlanCache`], and resolve the waiters.
//!
//! Every serving decision (admission, expiry, responses, quarantine,
//! restart, failover, rebalancing, the books) is the shared policy in
//! [`shard`]. This driver adds threads, locks and the wall clock:
//!
//! * a shard's queue and books sit under its `inner` lock, outside the
//!   worker thread, so a worker death loses nothing;
//! * every popped batch is stashed in the shard's in-flight slot before
//!   execution, so whatever kills the worker, the supervisor can
//!   re-queue the exact requests it held;
//! * execution runs under [`std::panic::catch_unwind`]: a panicking
//!   batch (e.g. an injected poison request) goes to the quarantine
//!   instead of taking the worker down;
//! * a supervisor thread health-checks the workers and restarts dead
//!   ones after [`SupervisorPolicy`]'s backoff, which it really sleeps;
//! * the budget lanes come from wall-clock stamps: a cache miss's
//!   measured plan construction is the plan lane, the rest of the
//!   execution the transform lane.
//!
//! Fault *injection* is deterministic and seeded ([`ShardFaultPlan`]):
//! the same plan drives the simulator ([`crate::sim::run_sim`])
//! and this live driver, at the same shard-local dispatch indices.
//!
//! Shutdown is a graceful drain: [`WaveletService::shutdown`] flips the
//! drain flag (new submissions are rejected [`Rejection::Draining`]),
//! wakes every worker, and joins them. Workers keep popping until their
//! queue is empty, so every accepted request still resolves — the drain
//! invariant the property tests pin down. A worker found dead at
//! shutdown surfaces as a typed [`ServiceError`], never as a
//! caller-visible panic, and its stranded requests are resolved
//! [`Rejection::ShardFailed`] first.

use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::batch::{Batch, BatchPolicy};
use crate::cache::PlanCache;
use crate::elastic::{BalanceAction, BalanceController, ElasticPolicy, ShardMap};
use crate::faults::{DegradedPolicy, ShardFaultPlan, SupervisorPolicy};
use crate::metrics::{LaneSplit, MetricsSnapshot};
use crate::request::{DecomposeRequest, Entry, RejectKind, Rejection, ServeResult};
use crate::shard::{self, Driver, Outcomes, ShardState};

/// Service-wide configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker shards (each owns a queue, a cache, and a thread).
    pub shards: usize,
    /// Admission-queue capacity per shard.
    pub queue_capacity: usize,
    /// Plan-cache capacity per shard (0 disables reuse).
    pub cache_capacity: usize,
    /// Batching policy shared by all shards.
    pub batch: BatchPolicy,
    /// Engine worker lanes per cached plan.
    pub engine_threads: usize,
    /// Deterministic fault-injection schedule (empty = no faults).
    pub faults: ShardFaultPlan,
    /// Worker supervision: restart budget, backoff, requeue cost.
    pub supervisor: SupervisorPolicy,
    /// Degraded-mode serving under reduced capacity (`None` = always
    /// exact).
    pub degraded: Option<DegradedPolicy>,
    /// Elastic sharding: load-aware work stealing and split/merge
    /// (`None` = static FNV placement).
    pub elastic: Option<ElasticPolicy>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 4,
            queue_capacity: 64,
            cache_capacity: 16,
            batch: BatchPolicy::default(),
            engine_threads: 1,
            faults: ShardFaultPlan::none(),
            supervisor: SupervisorPolicy::default(),
            degraded: None,
            elastic: None,
        }
    }
}

impl ServiceConfig {
    /// Override the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Override the per-shard queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Override the per-shard plan-cache capacity (0 = cache off).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Override the batching cap.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.batch = BatchPolicy::new(max_batch);
        self
    }

    /// Inject a deterministic fault schedule.
    pub fn with_faults(mut self, faults: ShardFaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Override the supervision policy.
    pub fn with_supervisor(mut self, supervisor: SupervisorPolicy) -> Self {
        self.supervisor = supervisor;
        self
    }

    /// Enable degraded-mode serving under reduced capacity.
    pub fn with_degraded(mut self, degraded: DegradedPolicy) -> Self {
        self.degraded = Some(degraded);
        self
    }

    /// Enable elastic sharding under the given policy.
    pub fn with_elastic(mut self, elastic: ElasticPolicy) -> Self {
        self.elastic = Some(elastic);
        self
    }

    /// Total shard slots: the live shard count plus the elastic
    /// reserve pool (0 extra without elastic).
    pub fn total_slots(&self) -> usize {
        self.shards.max(1) + self.elastic.map_or(0, |e| e.reserve)
    }

    /// Validate the configuration's fault and recovery knobs.
    pub fn validate(&self) -> Result<(), String> {
        self.faults.validate(self.total_slots())?;
        self.supervisor.validate()?;
        if let Some(d) = &self.degraded {
            d.validate()?;
        }
        if let Some(e) = &self.elastic {
            e.validate()?;
        }
        Ok(())
    }
}

/// A shutdown-time failure of the service itself (as opposed to a
/// per-request [`Rejection`]). Surfaced as a typed error so callers
/// never see a worker panic propagate through `join`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// A shard worker was found dead at shutdown and supervision was
    /// disabled, so nothing restarted it. Its stranded requests were
    /// resolved [`Rejection::ShardFailed`] before this was returned.
    WorkerPanicked {
        /// The shard whose worker died.
        shard: usize,
    },
    /// The supervisor thread itself panicked (a service bug; worker
    /// threads may be left running detached).
    SupervisorFailed,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::WorkerPanicked { shard } => {
                write!(
                    f,
                    "shard {shard} worker panicked (no supervisor to restart it)"
                )
            }
            ServiceError::SupervisorFailed => write!(f, "supervisor thread panicked"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// One-shot slot a request's terminal outcome is published into.
#[derive(Debug, Default)]
pub struct ResponseCell {
    slot: Mutex<Option<ServeResult>>,
    ready: Condvar,
}

impl ResponseCell {
    fn resolve(&self, result: ServeResult) {
        let mut slot = self.slot.lock();
        debug_assert!(slot.is_none(), "a request resolves exactly once");
        *slot = Some(result);
        self.ready.notify_all();
    }
}

/// The submitter's side of an accepted request.
#[derive(Debug, Clone)]
pub struct ResponseHandle {
    cell: Arc<ResponseCell>,
}

impl ResponseHandle {
    /// Block until the request's terminal outcome arrives.
    pub fn wait(&self) -> ServeResult {
        let mut slot = self.cell.slot.lock();
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            self.cell.ready.wait(&mut slot);
        }
    }

    /// The outcome, if already resolved (non-blocking).
    pub fn try_take(&self) -> Option<ServeResult> {
        self.cell.slot.lock().take()
    }
}

/// Lock-guarded half of one shard.
#[derive(Debug)]
struct Inner {
    shard: ShardState<Arc<ResponseCell>>,
    draining: bool,
}

/// One shard's state, owned by the service rather than by the worker
/// thread so nothing is lost when the worker dies.
#[derive(Debug)]
struct ShardShared {
    /// The queue and the books; survive worker restarts.
    inner: Mutex<Inner>,
    work: Condvar,
    /// The batch currently being executed. Stashed *before* execution
    /// starts; whatever kills the worker, the supervisor re-queues it.
    in_flight: Mutex<Option<Batch<Arc<ResponseCell>>>>,
    /// The shard's plan cache; survives worker restarts warm.
    cache: Mutex<PlanCache>,
    /// Shard-local dispatch counter — the fault-injection coordinate.
    /// Monotonic across worker restarts (a restarted worker continues
    /// the sequence, which is what makes a permanent crash keep firing).
    dispatch: AtomicU64,
    /// Set when the restart budget is exhausted; submitters and the
    /// failover router treat the shard as dead.
    failed: AtomicBool,
}

impl ShardShared {
    fn new(config: &ServiceConfig) -> Self {
        ShardShared {
            inner: Mutex::new(Inner {
                shard: ShardState::new(config.queue_capacity),
                draining: false,
            }),
            work: Condvar::new(),
            in_flight: Mutex::new(None),
            cache: Mutex::new(PlanCache::new(config.cache_capacity, config.engine_threads)),
            dispatch: AtomicU64::new(0),
            failed: AtomicBool::new(false),
        }
    }

    fn alive(&self) -> bool {
        !self.failed.load(Ordering::SeqCst)
    }
}

/// The live shards as the shared policy in [`shard`] drives them: a
/// shard's state is reached under its `inner` lock, and outcomes are
/// delivered to the response cells after that lock is released.
struct Live<'a>(&'a [Arc<ShardShared>]);

impl Driver<Arc<ResponseCell>> for Live<'_> {
    fn with<R>(&mut self, s: usize, f: impl FnOnce(&mut ShardState<Arc<ResponseCell>>) -> R) -> R {
        f(&mut self.0[s].inner.lock().shard)
    }

    fn with_pair<R>(
        &mut self,
        a: usize,
        b: usize,
        f: impl FnOnce(&mut ShardState<Arc<ResponseCell>>, &mut ShardState<Arc<ResponseCell>>) -> R,
    ) -> R {
        debug_assert_ne!(a, b, "a pair is two distinct shards");
        // Two shard locks nest only here, in ascending index order.
        let mut first = self.0[a.min(b)].inner.lock();
        let mut second = self.0[a.max(b)].inner.lock();
        if a < b {
            f(&mut first.shard, &mut second.shard)
        } else {
            f(&mut second.shard, &mut first.shard)
        }
    }

    fn alive(&self) -> Vec<bool> {
        self.0.iter().map(|s| s.alive()).collect()
    }

    fn resolve(&mut self, out: Outcomes<Arc<ResponseCell>>) {
        for (cell, result) in out {
            cell.resolve(result);
        }
    }

    fn offered(&mut self, s: usize, _now: f64, _was_idle: bool) {
        self.0[s].work.notify_one();
    }

    fn failed_over(&mut self, s: usize) {
        self.0[s].failed.store(true, Ordering::SeqCst);
    }
}

/// Shared elastic routing and control state of the live driver.
///
/// The [`ShardMap`] is *always* the routing authority — with elastic
/// disabled it is an unmodified map over the base shards, which routes
/// identically to the legacy [`shard::route`] ring. The controller is
/// present only under [`ServiceConfig::elastic`]; submitters tick it
/// opportunistically (`try_lock`, so at most one submitter balances at
/// a time and nobody queues behind the control plane).
///
/// Lock order: `ctrl` → `map` → shard `inner`. Two shard `inner` locks
/// nest only inside the shared queue surgery (`Driver::with_pair`),
/// always in ascending index order, and only while `ctrl` and `map` are
/// held — so no cycle is possible with the single-inner-lock paths. A
/// worker holds its shard's `in_flight` slot across execution and takes
/// the `cache` lock inside it; neither is held while taking `inner`.
/// Response cells are resolved only after every shard lock is released.
#[derive(Debug)]
struct LiveElastic {
    map: Mutex<ShardMap>,
    ctrl: Option<Mutex<BalanceController>>,
    /// The decision log: `(seconds since service start, action)`.
    log: Mutex<Vec<(f64, BalanceAction)>>,
}

/// The running service.
#[derive(Debug)]
pub struct WaveletService {
    start: Instant,
    shards: Vec<Arc<ShardShared>>,
    elastic: Arc<LiveElastic>,
    /// Present when supervision is enabled; owns the worker handles.
    supervisor: Option<thread::JoinHandle<()>>,
    /// Worker handles when supervision is disabled (joined at
    /// shutdown, where a panic becomes a typed [`ServiceError`]).
    workers: Vec<thread::JoinHandle<()>>,
    next_id: Mutex<u64>,
}

impl WaveletService {
    /// Start the service: spawns one worker thread per shard, plus a
    /// supervisor when the policy enables one.
    ///
    /// # Panics
    ///
    /// On a malformed configuration (fault plan naming absent shards,
    /// negative costs, …) — see [`ServiceConfig::validate`].
    pub fn start(config: ServiceConfig) -> Self {
        let config = ServiceConfig {
            shards: config.shards.max(1),
            ..config
        };
        if let Err(reason) = config.validate() {
            panic!("invalid ServiceConfig: {reason}");
        }
        let start = Instant::now();
        let total = config.total_slots();
        let shards: Vec<Arc<ShardShared>> = (0..total)
            .map(|_| Arc::new(ShardShared::new(&config)))
            .collect();
        let elastic = Arc::new(LiveElastic {
            map: Mutex::new(ShardMap::new(config.shards, total - config.shards)),
            ctrl: config
                .elastic
                .map(|policy| Mutex::new(BalanceController::new(policy))),
            log: Mutex::new(Vec::new()),
        });
        // Reserve-slot workers spawn with the rest: they sleep on their
        // empty queues until a split routes work their way, and they
        // drain like any other shard at shutdown.
        let handles: Vec<thread::JoinHandle<()>> = (0..total)
            .map(|ix| spawn_worker(ix, &shards, &config, start, &elastic))
            .collect();
        let (supervisor, workers) = if config.supervisor.enabled() {
            let sup_shards = shards.clone();
            let sup_cfg = config.clone();
            let sup_elastic = Arc::clone(&elastic);
            let handles = handles.into_iter().map(Some).collect();
            let sup = thread::spawn(move || {
                supervisor_loop(&sup_shards, handles, &sup_cfg, start, &sup_elastic)
            });
            (Some(sup), Vec::new())
        } else {
            (None, handles)
        };
        WaveletService {
            start,
            shards,
            elastic,
            supervisor,
            workers,
            next_id: Mutex::new(0),
        }
    }

    /// Seconds since service start (the live service clock).
    pub fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Submit one request. `Err` is an at-the-door rejection; `Ok` is a
    /// handle that resolves to exactly one terminal outcome. Requests
    /// whose home shard has failed over route to its live successor on
    /// the shard ring.
    pub fn submit(&self, req: DecomposeRequest) -> Result<ResponseHandle, Rejection> {
        let mut live = Live(&self.shards);
        shard::screen(&mut live, &req, |shape| self.elastic.map.lock().home(shape))?;
        let shard_ix = shard::route_arrival(&mut live, &self.elastic.map.lock(), &req.shape())?;
        let state = &self.shards[shard_ix];
        let cell = Arc::new(ResponseCell::default());
        let id = {
            let mut next = self.next_id.lock();
            let id = *next;
            *next += 1;
            id
        };
        let now = self.now();
        let entry = Entry {
            id,
            arrival: now,
            req,
            attempts: 0,
            tag: Arc::clone(&cell),
        };
        let mut out = Vec::new();
        let admitted = {
            let mut inner = state.inner.lock();
            if inner.draining {
                inner.shard.queue.counters.reject(RejectKind::Draining);
                return Err(Rejection::Draining);
            }
            inner.shard.admit(now, entry, &mut out)
        };
        if admitted.is_ok() {
            state.work.notify_one();
        }
        live.resolve(out);
        // The control plane runs on the submit path (no clock thread):
        // each admission gives the balancer one chance to act.
        self.elastic_tick(now);
        admitted
            .map(|()| ResponseHandle { cell })
            .map_err(|(_, rejection)| rejection)
    }

    /// The elastic controller's decision log so far: `(seconds since
    /// service start, action)` in decision order. Empty without
    /// [`ServiceConfig::elastic`].
    pub fn elastic_log(&self) -> Vec<(f64, BalanceAction)> {
        self.elastic.log.lock().clone()
    }

    /// Current routing-table version (bumped by every split, merge, and
    /// override mutation; 0 while the map is pristine).
    pub fn shard_map_epoch(&self) -> u64 {
        self.elastic.map.lock().epoch()
    }

    /// One opportunistic controller step at `now` seconds. `try_lock`
    /// keeps the control plane off the submit hot path: at most one
    /// submitter balances at a time, the rest skip.
    fn elastic_tick(&self, now: f64) {
        let Some(ctrl_m) = &self.elastic.ctrl else {
            return;
        };
        let Some(mut ctrl) = ctrl_m.try_lock() else {
            return;
        };
        let mut map = self.elastic.map.lock();
        if let Some(action) = shard::rebalance(&mut Live(&self.shards), &mut map, &mut ctrl, now) {
            self.elastic.log.lock().push((now, action));
        }
    }

    /// Graceful drain: reject new work, let workers empty their queues,
    /// join them, and return the merged metrics.
    ///
    /// A worker found dead with supervision disabled surfaces as
    /// `Err(ServiceError::WorkerPanicked)` — never a caller-visible
    /// panic — after its stranded requests are resolved
    /// [`Rejection::ShardFailed`] (every accepted request still
    /// terminates, even through an error shutdown).
    pub fn shutdown(self) -> Result<MetricsSnapshot, ServiceError> {
        for state in &self.shards {
            state.inner.lock().draining = true;
            state.work.notify_all();
        }
        let mut error = None;
        if let Some(sup) = self.supervisor {
            if sup.join().is_err() {
                error = Some(ServiceError::SupervisorFailed);
            }
        }
        for (ix, handle) in self.workers.into_iter().enumerate() {
            if handle.join().is_err() {
                self.shards[ix].failed.store(true, Ordering::SeqCst);
                self.shards[ix].inner.lock().shard.metrics.failed = true;
                error.get_or_insert(ServiceError::WorkerPanicked { shard: ix });
            }
        }
        // Backstop sweep: anything still queued or in flight (stranded
        // by an unsupervised death, or re-routed into a shard whose
        // worker had already drained) resolves ShardFailed so every
        // accepted request terminates.
        let mut live = Live(&self.shards);
        for (ix, state) in self.shards.iter().enumerate() {
            let stranded = state.in_flight.lock().take();
            let out = live.with(ix, |st| {
                let queued = st.queue.drain();
                stranded
                    .into_iter()
                    .flat_map(|b| b.entries)
                    .chain(queued)
                    .map(|entry| (entry.tag, Err(st.shard_failed(ix))))
                    .collect()
            });
            live.resolve(out);
        }
        // Close the books of every shard that ever served, exactly once
        // (reserve slots never activated are omitted so their
        // zero-completion lanes don't skew the imbalance rollup).
        let now = self.start.elapsed().as_secs_f64();
        let map = self.elastic.map.lock();
        let shards = self
            .shards
            .iter()
            .enumerate()
            .filter(|(ix, _)| map.ever_active(*ix))
            .map(|(_, state)| {
                state
                    .inner
                    .lock()
                    .shard
                    .books(&state.cache.lock(), now, now)
            })
            .collect();
        match error {
            None => Ok(MetricsSnapshot { shards }),
            Some(e) => Err(e),
        }
    }
}

fn spawn_worker(
    shard_ix: usize,
    shards: &[Arc<ShardShared>],
    cfg: &ServiceConfig,
    start: Instant,
    elastic: &Arc<LiveElastic>,
) -> thread::JoinHandle<()> {
    let shards = shards.to_vec();
    let cfg = cfg.clone();
    let elastic = Arc::clone(elastic);
    thread::spawn(move || worker_loop(shard_ix, &shards, &cfg, start, &elastic))
}

fn worker_loop(
    shard_ix: usize,
    shards: &[Arc<ShardShared>],
    cfg: &ServiceConfig,
    start: Instant,
    elastic: &Arc<LiveElastic>,
) {
    let me = &shards[shard_ix];
    let mut live = Live(shards);
    loop {
        let mut expired = Vec::new();
        let popped = {
            let mut inner = me.inner.lock();
            loop {
                if !inner.shard.queue.is_empty() {
                    // Stamp the wake once the worker holds work: time
                    // blocked on the condvar is idle, which `finalize`
                    // already charges to ImbalanceWait, so it must not
                    // land in the dispatch lane too.
                    let wake = Instant::now();
                    let now = start.elapsed().as_secs_f64();
                    break Some((inner.shard.pop(now, &cfg.batch, &mut expired), wake));
                }
                if inner.draining {
                    break None;
                }
                me.work.wait(&mut inner);
            }
        };
        live.resolve(expired);
        let Some((popped, wake)) = popped else {
            // Queue empty and draining: done. The books are closed
            // centrally at shutdown (they are shared state).
            return;
        };
        let Some((batch, depth_frac)) = popped else {
            continue;
        };
        let dispatch_start = start.elapsed().as_secs_f64();

        // Stash the dispatch before touching it: from here on, a worker
        // death strands nothing — the supervisor finds the batch in the
        // in-flight slot. The slot lock is held across execution (only
        // the supervisor ever contends, and only after a death).
        let mut slot = me.in_flight.lock();
        *slot = Some(batch);
        let k = me.dispatch.fetch_add(1, Ordering::SeqCst);
        if cfg.faults.worker_dies(shard_ix, k) {
            // Injected worker death: unwind out of the thread. The
            // slot guard unlocks on unwind; the batch stays stashed.
            panic!("injected worker death: shard {shard_ix}, dispatch {k}");
        }
        let batch_ref = slot.as_ref().expect("just stashed");
        let poisoned = batch_ref
            .entries
            .iter()
            .find(|e| cfg.faults.poisoned(e.id))
            .map(|e| e.id);
        let t0 = Instant::now();
        let executed = panic::catch_unwind(AssertUnwindSafe(|| {
            if let Some(id) = poisoned {
                panic!("injected poison request {id}");
            }
            let mut cache = me.cache.lock();
            shard::execute(&mut cache, batch_ref)
        }));
        let exec_s = t0.elapsed().as_secs_f64();
        let stall = cfg.faults.stall_factor(shard_ix, k);
        if stall > 1.0 {
            // Injected slowdown: this dispatch runs `stall`× slower.
            thread::sleep(Duration::from_secs_f64(exec_s * (stall - 1.0)));
        }
        let batch = slot.take().expect("still stashed");
        drop(slot);
        let t1 = Instant::now();
        match executed {
            Err(_) => {
                // Execution panicked and was quarantined in-thread: the
                // worker survives, the batch goes through the
                // poisoned-batch protocol.
                let now = start.elapsed().as_secs_f64();
                shard::quarantine(&mut live, shard_ix, batch, cfg.supervisor.requeue_s, now);
            }
            Ok(Ok(mut done)) => {
                // Degrade sub-interactive work when capacity is reduced:
                // covering for a failed peer, or a queue past the
                // high-water mark.
                let batch_size = batch.len();
                let shape_key = shard::shape_key(&batch.shape);
                let arrivals = batch.arrivals();
                let end = start.elapsed().as_secs_f64();
                let degradation = shard::degrade_batch(
                    cfg.degraded,
                    &live.alive(),
                    shard_ix,
                    depth_frac,
                    &batch.entries,
                    &mut done.pyramids,
                );
                let lanes = done.lanes(t0.duration_since(wake).as_secs_f64(), exec_s);
                let degraded = shard::respond(
                    &mut live,
                    batch.entries,
                    done,
                    degradation,
                    dispatch_start,
                    end,
                );
                let deliver_s = t1.elapsed().as_secs_f64();
                live.with(shard_ix, |st| {
                    let split = LaneSplit { deliver_s, ..lanes };
                    st.metrics
                        .record_batch(dispatch_start, end + deliver_s, &arrivals, split);
                    st.metrics.degraded_served += degraded;
                });
                // Feed the cost book with the measured per-request
                // service time. `try_lock` only: a held controller is
                // mid-decision, and one skipped sample is cheaper than
                // a worker queuing behind the control plane.
                if let Some(ctrl) = &elastic.ctrl {
                    if let Some(mut c) = ctrl.try_lock() {
                        let per_req =
                            ((end + deliver_s) - dispatch_start).max(0.0) / batch_size as f64;
                        c.observe(shape_key, per_req);
                    }
                }
            }
            Ok(Err(detail)) => {
                // Engine refused the batch (validation raced a bad
                // request past admission): fail each entry, keep going.
                for entry in batch.entries {
                    entry.tag.resolve(Err(Rejection::Invalid {
                        detail: detail.clone(),
                    }));
                }
            }
        }
    }
}

/// The supervisor: polls worker liveness, restarts dead workers under
/// the backoff budget (re-queuing whatever the dead worker held), and
/// past the budget fails the shard over — every queued and in-flight
/// entry re-routes to its live successor on the shard ring.
fn supervisor_loop(
    shards: &[Arc<ShardShared>],
    mut handles: Vec<Option<thread::JoinHandle<()>>>,
    cfg: &ServiceConfig,
    start: Instant,
    elastic: &Arc<LiveElastic>,
) {
    let policy = cfg.supervisor;
    loop {
        let mut all_done = true;
        for s in 0..shards.len() {
            if handles[s].as_ref().is_some_and(|h| h.is_finished()) {
                let handle = handles[s].take().expect("presence just checked");
                if handle.join().is_err() {
                    let stranded = shards[s].in_flight.lock().take();
                    let stranded = stranded.map_or_else(Vec::new, |b| b.entries);
                    let now = start.elapsed().as_secs_f64();
                    let map = elastic.map.lock();
                    let restarted =
                        shard::worker_died(&mut Live(shards), &map, s, stranded, &policy, now);
                    drop(map);
                    if let Some(backoff) = restarted {
                        thread::sleep(Duration::from_secs_f64(backoff));
                        handles[s] = Some(spawn_worker(s, shards, cfg, start, elastic));
                    }
                }
            }
            if handles[s].is_some() {
                all_done = false;
            }
        }
        if all_done {
            return;
        }
        thread::sleep(Duration::from_secs_f64(policy.poll_s));
    }
}
