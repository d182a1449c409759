//! The live, threaded service driver.
//!
//! [`WaveletService`] owns one worker thread per shard. Submitters hash
//! the request's shape to a shard (walking the ring past failed shards
//! — see [`shard::route`]), admit it under that shard's lock, and get
//! back a [`ResponseHandle`] that resolves to exactly one
//! [`ServeResult`]. Workers pop coalesced batches, execute them through
//! the shard's [`PlanCache`], and resolve the waiters.
//!
//! # Fault tolerance
//!
//! Shard state (queue, in-flight dispatch, cache, metrics, dispatch
//! counter) lives *outside* the worker thread, so a worker death loses
//! nothing:
//!
//! * every popped batch is stashed in the shard's in-flight slot before
//!   execution, so whatever kills the worker, the supervisor can
//!   re-queue the exact requests it held;
//! * execution runs under [`std::panic::catch_unwind`]: a panic while
//!   executing (e.g. an injected poison request) is quarantined
//!   in-thread — batchmates are re-queued to retry *solo*, and a
//!   request that panics even alone is terminally rejected
//!   [`Rejection::Requeued`] instead of taking the worker down;
//! * a supervisor thread health-checks the workers and restarts dead
//!   ones under [`SupervisorPolicy`]'s bounded exponential-backoff
//!   budget; past the budget the shard is failed over — its queued and
//!   in-flight work re-routes to live successors on the shard ring, and
//!   future submissions route around it;
//! * under reduced capacity (covering for a failed peer, or a queue
//!   past the high-water mark) a shard may answer sub-interactive work
//!   with a degraded, bounded-error response ([`DegradedPolicy`])
//!   instead of letting the backlog shed it.
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
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::admission::{AdmissionQueue, Admit};
use crate::batch::{Batch, BatchPolicy};
use crate::cache::PlanCache;
use crate::elastic::{
    BalanceAction, BalanceController, ElasticPolicy, QueuedShape, ShardLoad, ShardMap,
};
use crate::faults::{DegradedPolicy, ShardFaultPlan, SupervisorPolicy};
use crate::metrics::{LaneSplit, MetricsSnapshot, ShardMetrics};
use crate::request::{
    DecomposeRequest, DecomposeResponse, Entry, RejectKind, Rejection, ServeResult,
};
use crate::shard;

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
    queue: AdmissionQueue<Arc<ResponseCell>>,
    draining: bool,
}

/// One shard's state, owned by the service rather than by the worker
/// thread so nothing is lost when the worker dies.
#[derive(Debug)]
struct ShardShared {
    inner: Mutex<Inner>,
    work: Condvar,
    /// The batch currently being executed. Stashed *before* execution
    /// starts; whatever kills the worker, the supervisor re-queues it.
    in_flight: Mutex<Option<Batch<Arc<ResponseCell>>>>,
    /// The shard's plan cache; survives worker restarts warm.
    cache: Mutex<PlanCache>,
    /// The shard's metrics; survive worker restarts.
    metrics: Mutex<ShardMetrics>,
    /// Shard-local dispatch counter — the fault-injection coordinate.
    /// Monotonic across worker restarts (a restarted worker continues
    /// the sequence, which is what makes a permanent crash keep firing).
    dispatch: AtomicU64,
    /// Set when the restart budget is exhausted; submitters and the
    /// failover router treat the shard as dead.
    failed: AtomicBool,
    /// Worker restarts performed so far.
    restarts: AtomicU32,
}

impl ShardShared {
    fn new(config: &ServiceConfig) -> Self {
        ShardShared {
            inner: Mutex::new(Inner {
                queue: AdmissionQueue::new(config.queue_capacity),
                draining: false,
            }),
            work: Condvar::new(),
            in_flight: Mutex::new(None),
            cache: Mutex::new(PlanCache::new(config.cache_capacity, config.engine_threads)),
            metrics: Mutex::new(ShardMetrics::default()),
            dispatch: AtomicU64::new(0),
            failed: AtomicBool::new(false),
            restarts: AtomicU32::new(0),
        }
    }

    fn alive(&self) -> bool {
        !self.failed.load(Ordering::SeqCst)
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
/// Lock order: `ctrl` → `map` → shard `inner` (innermost). Shard inner
/// locks nest (two at once) only inside [`WaveletService::migrate`],
/// always in ascending index order, and only while `ctrl` is held — so
/// no cycle is possible with the single-inner-lock paths.
#[derive(Debug)]
struct LiveElastic {
    map: Mutex<ShardMap>,
    ctrl: Option<Mutex<BalanceController>>,
    /// Reserve slots that were activated at least once (their books are
    /// part of the final snapshot; never-activated slots served
    /// nothing and are omitted).
    ever_active: Mutex<Vec<bool>>,
    /// The decision log: `(seconds since service start, action)`.
    log: Mutex<Vec<(f64, BalanceAction)>>,
}

/// The running service.
#[derive(Debug)]
pub struct WaveletService {
    config: ServiceConfig,
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
            ever_active: Mutex::new(vec![false; total]),
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
            config,
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
        req.validate()?;
        let shape = req.shape();
        let alive: Vec<bool> = self.shards.iter().map(|s| s.alive()).collect();
        let (home, routed) = {
            let map = self.elastic.map.lock();
            (map.home(&shape), map.route(&shape, &alive))
        };
        let Some(shard_ix) = routed else {
            // Every shard is down; account the rejection to the home
            // shard so the books still balance per shard.
            let restarts = self.shards[home].restarts.load(Ordering::SeqCst);
            let mut inner = self.shards[home].inner.lock();
            inner.queue.counters.reject(RejectKind::ShardFailed);
            return Err(Rejection::ShardFailed {
                shard: home,
                restarts,
            });
        };
        let state = &self.shards[shard_ix];
        let cell = Arc::new(ResponseCell::default());
        let id = {
            let mut next = self.next_id.lock();
            let id = *next;
            *next += 1;
            id
        };
        let now = self.now();
        let incoming = req.priority;
        let entry = Entry {
            id,
            arrival: now,
            req,
            attempts: 0,
            tag: Arc::clone(&cell),
        };
        let admitted = {
            let mut inner = state.inner.lock();
            if inner.draining {
                inner.queue.counters.reject(RejectKind::Draining);
                return Err(Rejection::Draining);
            }
            inner.queue.admit(now, entry)
        };
        let result = match admitted {
            Admit::Accepted => {
                state.work.notify_one();
                Ok(ResponseHandle { cell })
            }
            Admit::AcceptedShedding(victim) => {
                // The queue guarantees the victim's class is strictly
                // below the arrival's; the rejection records who won.
                debug_assert!(victim.req.priority < incoming);
                victim.tag.resolve(Err(Rejection::Shed { by: incoming }));
                state.work.notify_one();
                Ok(ResponseHandle { cell })
            }
            Admit::Rejected(_, rejection) => Err(rejection),
        };
        // The control plane runs on the submit path (no clock thread):
        // each admission gives the balancer one chance to act.
        self.elastic_tick(now);
        result
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
        if !ctrl.ready(now) {
            return;
        }
        let mut map = self.elastic.map.lock();
        let loads: Vec<ShardLoad> = self
            .shards
            .iter()
            .enumerate()
            .map(|(s, st)| {
                let inner = st.inner.lock();
                ShardLoad {
                    active: map.is_active(s),
                    failed: !st.alive(),
                    depth: inner.queue.len(),
                    free: inner.queue.free(),
                    queued: inner
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
                }
            })
            .collect();
        let Some(action) = ctrl.decide(now, &loads) else {
            return;
        };
        self.apply_action(&mut map, &action);
        self.elastic.log.lock().push((now, action));
    }

    /// Apply one decided action as queue surgery plus map mutation.
    /// Every migrated entry leaves exactly one queue and enters exactly
    /// one queue under its locks, so the exactly-once books never see
    /// the move.
    fn apply_action(&self, map: &mut ShardMap, action: &BalanceAction) {
        match action {
            BalanceAction::Steal { from, to, key, cap } => {
                self.migrate(*from, *to, *key, *cap);
            }
            BalanceAction::Split { from, to, keys } => {
                if !self.shards[*to].alive() {
                    return;
                }
                map.activate(*to);
                self.elastic.ever_active.lock()[*to] = true;
                for &key in keys {
                    map.set_override(key, *to);
                    self.migrate(*from, *to, key, usize::MAX);
                }
                self.shards[*from].metrics.lock().splits += 1;
            }
            BalanceAction::Merge { from } => {
                for key in map.overrides_to(*from) {
                    map.clear_override(key);
                }
                map.retire(*from);
                self.shards[*from].metrics.lock().merges += 1;
                // Drain the retiring queue losslessly back through the
                // map. The merge threshold keeps this tiny (usually
                // empty); a full routable queue resolves the entry as
                // a typed QueueFull rather than losing it.
                let queued = self.shards[*from].inner.lock().queue.drain();
                let alive: Vec<bool> = self.shards.iter().map(|s| s.alive()).collect();
                for entry in queued {
                    let Some(target) = map.route(&entry.req.shape(), &alive) else {
                        let me = &self.shards[*from];
                        let restarts = me.restarts.load(Ordering::SeqCst);
                        me.inner
                            .lock()
                            .queue
                            .counters
                            .reject(RejectKind::ShardFailed);
                        entry.tag.resolve(Err(Rejection::ShardFailed {
                            shard: *from,
                            restarts,
                        }));
                        continue;
                    };
                    let st = &self.shards[target];
                    let mut inner = st.inner.lock();
                    if inner.queue.free() > 0 {
                        inner.queue.accept_migrated(entry);
                        drop(inner);
                        self.shards[*from].metrics.lock().stolen_out += 1;
                        st.metrics.lock().stolen_in += 1;
                        st.work.notify_one();
                    } else {
                        let depth = inner.queue.len();
                        inner.queue.counters.reject(RejectKind::QueueFull);
                        drop(inner);
                        entry.tag.resolve(Err(Rejection::QueueFull { depth }));
                    }
                }
            }
        }
    }

    /// Migrate up to `cap` queued entries of routing key `key` from
    /// shard `from` to shard `to`, both inner locks held (ascending
    /// index order) so the move is atomic with respect to failover
    /// drains — an entry is owned by exactly one of the two mechanisms.
    fn migrate(&self, from: usize, to: usize, key: u64, cap: usize) {
        if from == to || !self.shards[from].alive() || !self.shards[to].alive() {
            // A shard mid-failover is never a steal source or target:
            // the controller already filters failed shards, and this
            // re-check closes the decide-to-apply race.
            return;
        }
        let (first, second) = (from.min(to), from.max(to));
        let mut g1 = self.shards[first].inner.lock();
        let mut g2 = self.shards[second].inner.lock();
        let (from_inner, to_inner) = if from < to {
            (&mut *g1, &mut *g2)
        } else {
            (&mut *g2, &mut *g1)
        };
        let cap = cap.min(to_inner.queue.free());
        if cap == 0 {
            return;
        }
        let taken = from_inner.queue.take_shape(key, cap);
        let moved = taken.len() as u64;
        for entry in taken {
            to_inner.queue.accept_migrated(entry);
        }
        drop(g2);
        drop(g1);
        if moved > 0 {
            self.shards[from].metrics.lock().stolen_out += moved;
            self.shards[to].metrics.lock().stolen_in += moved;
            self.shards[to].work.notify_all();
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
            let mut inner = state.inner.lock();
            inner.draining = true;
            drop(inner);
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
                self.shards[ix].metrics.lock().failed = true;
                error.get_or_insert(ServiceError::WorkerPanicked { shard: ix });
            }
        }
        // Backstop sweep: anything still queued or in flight (stranded
        // by an unsupervised death, or re-routed into a shard whose
        // worker had already drained) resolves ShardFailed so every
        // accepted request terminates.
        for (ix, state) in self.shards.iter().enumerate() {
            let stranded = state.in_flight.lock().take();
            let queued = state.inner.lock().queue.drain();
            let restarts = state.restarts.load(Ordering::SeqCst);
            for entry in stranded.into_iter().flat_map(|b| b.entries).chain(queued) {
                state
                    .inner
                    .lock()
                    .queue
                    .counters
                    .reject(RejectKind::ShardFailed);
                entry.tag.resolve(Err(Rejection::ShardFailed {
                    shard: ix,
                    restarts,
                }));
            }
        }
        // Close every shard's books exactly once. Reserve slots that
        // were never activated served nothing — they are omitted so
        // their zero-completion lanes don't skew the imbalance rollup
        // (activation always picks the lowest reserve slot, so the
        // omissions are a stable suffix).
        let now = self.start.elapsed().as_secs_f64();
        let ever_active = self.elastic.ever_active.lock().clone();
        let shards = self
            .shards
            .iter()
            .enumerate()
            .filter(|(ix, _)| *ix < self.config.shards || ever_active[*ix])
            .map(|(_, state)| {
                let mut m = state.metrics.lock().clone();
                m.queue = state.inner.lock().queue.counters.clone();
                m.absorb_cache(&state.cache.lock());
                m.finalize(now);
                m
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

/// Re-admit one entry into `target`'s queue at `now`, charging the
/// requeue cost to `charge` (the shard responsible for the recovery:
/// itself for quarantine and restart requeues, the failed shard for
/// failover re-routes). An entry the queue refuses resolves terminally
/// with the typed rejection.
fn readmit(
    charge: &ShardShared,
    target: &ShardShared,
    entry: Entry<Arc<ResponseCell>>,
    policy: &SupervisorPolicy,
    now: f64,
) {
    let incoming = entry.req.priority;
    let admitted = {
        let mut inner = target.inner.lock();
        inner.queue.admit(now, entry)
    };
    match admitted {
        Admit::Accepted => {
            charge.metrics.lock().record_requeue(policy.requeue_s);
            target.work.notify_one();
        }
        Admit::AcceptedShedding(victim) => {
            charge.metrics.lock().record_requeue(policy.requeue_s);
            victim.tag.resolve(Err(Rejection::Shed { by: incoming }));
            target.work.notify_one();
        }
        Admit::Rejected(entry, rejection) => entry.tag.resolve(Err(rejection)),
    }
}

/// The poisoned-batch quarantine, applied after a caught execution
/// panic: batchmates re-queue to retry solo (attempts + 1, so the
/// batcher isolates them); a request that panicked even solo is
/// terminally rejected instead of burning another worker.
fn quarantine(
    me: &ShardShared,
    batch: Batch<Arc<ResponseCell>>,
    policy: &SupervisorPolicy,
    now: f64,
) {
    if batch.len() == 1 {
        let entry = batch.entries.into_iter().next().expect("len checked");
        {
            let mut metrics = me.metrics.lock();
            metrics.quarantined += 1;
        }
        me.inner.lock().queue.counters.reject(RejectKind::Requeued);
        entry.tag.resolve(Err(Rejection::Requeued {
            attempts: entry.attempts + 1,
        }));
        return;
    }
    for mut entry in batch.entries {
        entry.attempts += 1;
        readmit(me, me, entry, policy, now);
    }
}

fn worker_loop(
    shard_ix: usize,
    shards: &[Arc<ShardShared>],
    cfg: &ServiceConfig,
    start: Instant,
    elastic: &Arc<LiveElastic>,
) {
    let me = &shards[shard_ix];
    loop {
        let popped = {
            let mut inner = me.inner.lock();
            loop {
                if !inner.queue.is_empty() {
                    // Stamp the wake once the worker holds work: time
                    // blocked on the condvar is idle, which `finalize`
                    // already charges to ImbalanceWait, so it must not
                    // land in the dispatch lane too.
                    let wake = Instant::now();
                    let now = start.elapsed().as_secs_f64();
                    let depth_frac = inner.queue.len() as f64 / cfg.queue_capacity.max(1) as f64;
                    break Some((inner.queue.pop_batch(now, &cfg.batch), depth_frac, wake));
                }
                if inner.draining {
                    break None;
                }
                me.work.wait(&mut inner);
            }
        };
        let Some((pop, depth_frac, wake)) = popped else {
            // Queue empty and draining: done. The books are closed
            // centrally at shutdown (metrics are shared state).
            return;
        };
        let dispatch_start = start.elapsed().as_secs_f64();
        for entry in pop.expired {
            let deadline = entry.req.deadline.expect("expired implies a deadline");
            me.metrics
                .lock()
                .record_lost(dispatch_start - entry.arrival);
            entry.tag.resolve(Err(Rejection::DeadlineExpired {
                deadline,
                now: dispatch_start,
            }));
        }
        let Some(batch) = pop.batch else { continue };

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
                quarantine(me, batch, &cfg.supervisor, now);
            }
            Ok(Ok(mut done)) => {
                // Degrade sub-interactive work when capacity is reduced:
                // covering for a failed peer, or a queue past the
                // high-water mark.
                let peer_failed = shards
                    .iter()
                    .enumerate()
                    .any(|(i, s)| i != shard_ix && !s.alive());
                let batch_size = batch.len();
                let shape_key = shard::shape_key(&batch.shape);
                let arrivals = batch.arrivals();
                let end = start.elapsed().as_secs_f64();
                let degradation = shard::degrade_batch(
                    cfg.degraded,
                    peer_failed,
                    depth_frac,
                    &batch.entries,
                    &mut done.pyramids,
                );
                let degraded_count = degradation.iter().filter(|d| d.degraded).count() as u64;
                for ((entry, pyramid), d) in batch
                    .entries
                    .into_iter()
                    .zip(done.pyramids)
                    .zip(degradation)
                {
                    entry.tag.resolve(Ok(DecomposeResponse {
                        pyramid,
                        cache_hit: done.cache_hit,
                        batch_size,
                        wait_s: (dispatch_start - entry.arrival).max(0.0),
                        service_s: (end - dispatch_start).max(0.0),
                        degraded: d.degraded,
                        error_bound: d.error_bound,
                    }));
                }
                let deliver_s = t1.elapsed().as_secs_f64();
                let dispatch_s = (t0.duration_since(wake)).as_secs_f64();
                let split = LaneSplit {
                    dispatch_s,
                    // The cache splits build from reuse internally; a
                    // miss's whole execution interval is conservatively
                    // split by whether the plan was rebuilt.
                    plan_s: if done.cache_hit { 0.0 } else { exec_s * 0.5 },
                    transform_s: if done.cache_hit { exec_s } else { exec_s * 0.5 },
                    deliver_s,
                };
                let mut metrics = me.metrics.lock();
                metrics.record_batch(dispatch_start, end + deliver_s, &arrivals, split);
                metrics.degraded_served += degraded_count;
                drop(metrics);
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
                    let me = &shards[s];
                    let restart_no = me.restarts.load(Ordering::SeqCst) + 1;
                    if restart_no <= policy.max_restarts {
                        me.restarts.store(restart_no, Ordering::SeqCst);
                        // Re-queue the dispatch the dead worker held;
                        // the worker was the suspect, not the requests,
                        // so attempts are not bumped.
                        let stranded = me.in_flight.lock().take();
                        let now = start.elapsed().as_secs_f64();
                        if let Some(batch) = stranded {
                            for entry in batch.entries {
                                readmit(me, me, entry, &policy, now);
                            }
                        }
                        let backoff = policy.backoff_s(restart_no);
                        me.metrics.lock().record_restart(backoff);
                        thread::sleep(Duration::from_secs_f64(backoff));
                        handles[s] = Some(spawn_worker(s, shards, cfg, start, elastic));
                    } else {
                        fail_over(s, shards, &policy, start, elastic);
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

/// Declare shard `s` failed and re-route its in-flight and queued work
/// to live successors through the shard map (which degenerates to the
/// legacy ring without elastic overrides). Entries with no live
/// successor resolve [`Rejection::ShardFailed`].
fn fail_over(
    s: usize,
    shards: &[Arc<ShardShared>],
    policy: &SupervisorPolicy,
    start: Instant,
    elastic: &Arc<LiveElastic>,
) {
    let me = &shards[s];
    me.failed.store(true, Ordering::SeqCst);
    me.metrics.lock().failed = true;
    let restarts = me.restarts.load(Ordering::SeqCst);
    let now = start.elapsed().as_secs_f64();
    let stranded = me.in_flight.lock().take();
    let queued = me.inner.lock().queue.drain();
    let alive: Vec<bool> = shards.iter().map(|x| x.alive()).collect();
    let map = elastic.map.lock();
    for entry in stranded.into_iter().flat_map(|b| b.entries).chain(queued) {
        match map.route(&entry.req.shape(), &alive) {
            Some(target) => readmit(me, &shards[target], entry, policy, now),
            None => {
                me.inner
                    .lock()
                    .queue
                    .counters
                    .reject(RejectKind::ShardFailed);
                entry
                    .tag
                    .resolve(Err(Rejection::ShardFailed { shard: s, restarts }));
            }
        }
    }
}
