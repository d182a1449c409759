//! Remote serving: [`RemoteServer`] puts the wire protocol in front of
//! [`WaveletService::submit`], [`RemoteClient`] drives it from the
//! other side.
//!
//! ## Connection anatomy
//!
//! Each accepted connection gets two threads. The *reader* performs the
//! handshake, then turns Request frames into `submit()` calls; the
//! *writer* waits on the resulting [`ResponseHandle`]s in FIFO order
//! and streams Response frames back. Between them sits a bounded
//! in-flight window: the reader stops pulling bytes once `window`
//! submitted requests have unsent responses, so a client that floods
//! requests without reading responses backpressures itself (its TCP
//! send buffer / pipe window fills) instead of ballooning server
//! memory.
//!
//! ## Exactly-once
//!
//! Clients assign monotone request ids and resubmit idempotently after
//! transport faults. The server keeps a per-client *resolution book*:
//! a request id is `InFlight` from submission until its outcome is
//! recorded, then `Done(result)`. A resubmit of a `Done` id replays the
//! recorded outcome without re-execution; a resubmit of an `InFlight`
//! id (the original connection died mid-service) waits for the
//! original resolution and sends that. Execution happens at most once
//! per id; rejected submissions are deliberately *not* recorded, so a
//! retry after `QueueFull` re-attempts admission rather than replaying
//! the rejection. A connection that ends with the client's `Bye` drops
//! that client's book (it will never retry); one that ends in a reset
//! or EOF keeps it, so the reconnect's retries still replay.
//!
//! ## Progressive delivery
//!
//! With [`RemoteConfig::progressive`] set, successful responses ship
//! as a plane sequence instead of one monolithic frame: a header frame
//! (metadata + exact LL plane, [`crate::wire::FLAG_CONTINUE`] set),
//! then detail planes in decreasing energy order, the last with the
//! flag clear. The whole sequence occupies *one* window permit — flow
//! control is per-request, so a progressive response cannot starve its
//! neighbours beyond what a monolithic one would. A client whose
//! tolerance is met mid-sequence sends [`FrameKind::Cancel`]; the
//! reader records the id and the writer stops the sequence at the next
//! plane boundary. Cancel is idempotent and dedup-safe: the request
//! already executed and its outcome is in the resolution book, so
//! cancellation only trims delivery, never accounting.
//!
//! ## Drain
//!
//! [`RemoteServer::shutdown`] closes the listener, lets every reader
//! stop at a frame boundary, runs the service's own graceful drain
//! (which resolves every accepted request), and lets writers flush
//! those responses before FIN — lossless for everything accepted. A
//! half-open connection (partial frame, then silence) cannot block
//! this: after `drain_grace` it is aborted and counted in
//! [`TransportMetrics::conn_aborted`].

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use dwt_mimd::CheckpointCodec;

use crate::faults::{WireDir, WireFaultPlan};
use crate::metrics::{MetricsSnapshot, TransportMetrics};
use crate::progressive::{split_response, Reassembler};
use crate::request::{DecomposeRequest, Rejection, ServeResult};
use crate::server::{ResponseHandle, ServiceConfig, ServiceError, WaveletService};
use crate::transport::{
    Connector, FrameIo, Listener, RecvFrame, Transport, TransportError, WireClock,
};
use crate::wire::{
    decode_hello, decode_request, decode_response_body, encode_hello, encode_progressive_header,
    encode_progressive_plane, encode_request, encode_response, Frame, FrameKind, Hello,
    ResponseBody, DEFAULT_MAX_PAYLOAD, HEADER_LEN, PROTOCOL_VERSION, TRAILER_LEN,
};

/// Smallest payload window either side will settle on: enough to frame
/// a handshake or rejection even against an absurd peer announcement.
const MIN_NEGOTIATED_PAYLOAD: u32 = 64;

/// `min(ours, theirs)` with the floor both sides clamp to, so the two
/// ends always agree on the window byte-for-byte.
fn negotiate_payload(ours: u32, theirs: u32) -> u32 {
    ours.max(MIN_NEGOTIATED_PAYLOAD)
        .min(theirs.max(MIN_NEGOTIATED_PAYLOAD))
}

/// Remote-layer knobs, layered on top of a [`ServiceConfig`].
#[derive(Debug, Clone)]
pub struct RemoteConfig {
    /// Per-connection in-flight window: submitted requests whose
    /// responses are not yet sent. The reader stops reading at the cap.
    pub window: u32,
    /// Largest frame payload either side accepts.
    pub max_payload: u32,
    /// Poll period for receive/accept waits.
    pub tick: Duration,
    /// How long drain waits for a mid-frame connection to finish its
    /// frame before aborting it.
    pub drain_grace: Duration,
    /// Seeded wire faults, injected on the server's send path (the
    /// client injects its own directions from the same plan).
    pub wire_faults: WireFaultPlan,
    /// When set, successful responses stream progressively (header +
    /// energy-ordered detail planes) with this codec quantizing the
    /// planes on the wire. `None` keeps monolithic responses.
    pub progressive: Option<CheckpointCodec>,
}

impl Default for RemoteConfig {
    fn default() -> Self {
        RemoteConfig {
            window: 8,
            max_payload: DEFAULT_MAX_PAYLOAD,
            tick: Duration::from_millis(1),
            drain_grace: Duration::from_millis(50),
            wire_faults: WireFaultPlan::none(),
            progressive: None,
        }
    }
}

impl RemoteConfig {
    /// Validate the knobs. Returns a human-readable reason on failure.
    pub fn validate(&self) -> Result<(), String> {
        if self.window == 0 {
            return Err("window must be >= 1".into());
        }
        if self.max_payload < MIN_NEGOTIATED_PAYLOAD {
            return Err(format!(
                "max_payload {} is too small to frame",
                self.max_payload
            ));
        }
        if let Some(codec) = &self.progressive {
            if !codec.is_valid() {
                return Err("progressive codec parameters must be finite and >= 0".into());
            }
        }
        self.wire_faults.validate()
    }
}

/// Everything a finished remote run exports: the service's own books
/// plus the transport layer's.
#[derive(Debug, Clone, Default)]
pub struct RemoteMetrics {
    /// Per-shard service metrics (as an in-process run would export).
    pub service: MetricsSnapshot,
    /// Transport counters merged over every connection.
    pub transport: TransportMetrics,
}

// ---------------------------------------------------------------------
// Dedup registry (the per-client resolution book)
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Slot {
    InFlight,
    Done(ServeResult),
}

#[derive(Default)]
struct ClientBook {
    entries: BTreeMap<u64, Slot>,
    max_id: u64,
}

struct Dedup {
    books: Mutex<HashMap<u64, ClientBook>>,
    resolved: Condvar,
    /// Resolved entries older than this many ids below the client's
    /// newest are pruned — a client retries only its outstanding window,
    /// so anything far behind the head can never be asked for again.
    keep: u64,
}

impl Dedup {
    fn new(window: u32) -> Arc<Dedup> {
        Arc::new(Dedup {
            books: Mutex::new(HashMap::new()),
            resolved: Condvar::new(),
            keep: window as u64 * 4 + 64,
        })
    }

    /// Look up `(client, id)`; if unseen, mark it `InFlight` and return
    /// `None` (the caller owns the submission).
    fn claim(&self, client: u64, id: u64) -> Option<Slot> {
        let mut books = self.books.lock();
        let book = books.entry(client).or_default();
        book.max_id = book.max_id.max(id);
        match book.entries.get(&id) {
            Some(slot) => Some(slot.clone()),
            None => {
                book.entries.insert(id, Slot::InFlight);
                None
            }
        }
    }

    /// Record the terminal outcome for `(client, id)` and prune the
    /// book's resolved tail.
    fn resolve(&self, client: u64, id: u64, result: &ServeResult) {
        let mut books = self.books.lock();
        let book = books.entry(client).or_default();
        book.entries.insert(id, Slot::Done(result.clone()));
        let horizon = book.max_id.saturating_sub(self.keep);
        while let Some((&first, slot)) = book.entries.first_key_value() {
            if first >= horizon || !matches!(slot, Slot::Done(_)) {
                break;
            }
            book.entries.remove(&first);
        }
        self.resolved.notify_all();
    }

    /// Wait until `(client, id)` resolves (the original connection's
    /// writer records it), bailing out if `dead` is raised.
    fn await_done(
        &self,
        client: u64,
        id: u64,
        tick: Duration,
        dead: &AtomicBool,
    ) -> Option<ServeResult> {
        let mut books = self.books.lock();
        loop {
            if let Some(Slot::Done(result)) = books.get(&client).and_then(|b| b.entries.get(&id)) {
                return Some(result.clone());
            }
            if dead.load(Ordering::SeqCst) {
                return None;
            }
            self.resolved.wait_for(&mut books, tick);
        }
    }
}

// ---------------------------------------------------------------------
// Per-connection in-flight window
// ---------------------------------------------------------------------

struct Window {
    permits: Mutex<u32>,
    freed: Condvar,
}

impl Window {
    fn new(cap: u32) -> Arc<Window> {
        Arc::new(Window {
            permits: Mutex::new(cap),
            freed: Condvar::new(),
        })
    }

    /// Take one permit; `false` if the connection died while waiting.
    fn acquire(&self, tick: Duration, dead: &AtomicBool) -> bool {
        let mut permits = self.permits.lock();
        loop {
            if *permits > 0 {
                *permits -= 1;
                return true;
            }
            if dead.load(Ordering::SeqCst) {
                return false;
            }
            self.freed.wait_for(&mut permits, tick);
        }
    }

    fn release(&self) {
        *self.permits.lock() += 1;
        self.freed.notify_all();
    }
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

enum WriteItem {
    /// Wait on the service handle, record the outcome, send it.
    Resolve { id: u64, handle: ResponseHandle },
    /// Send a known outcome (rejection or dedup replay).
    Ready { id: u64, result: ServeResult },
    /// Wait for another connection's writer to record the outcome.
    AwaitDedup { id: u64 },
    /// The server's half of the handshake.
    Ack { client: u64 },
}

struct ServerShared {
    service: Mutex<Option<WaveletService>>,
    dedup: Arc<Dedup>,
    clock: Arc<WireClock>,
    metrics: Mutex<TransportMetrics>,
    drain: AtomicBool,
    config: RemoteConfig,
}

/// The wire protocol in front of a [`WaveletService`]. See the module
/// docs for the connection anatomy and drain semantics.
pub struct RemoteServer {
    shared: Arc<ServerShared>,
    accept: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl RemoteServer {
    /// Start the service and the accept loop on `listener`.
    pub fn start(
        service: ServiceConfig,
        config: RemoteConfig,
        mut listener: Box<dyn Listener>,
    ) -> Result<RemoteServer, String> {
        service.validate()?;
        config.validate()?;
        let shared = Arc::new(ServerShared {
            service: Mutex::new(Some(WaveletService::start(service))),
            dedup: Dedup::new(config.window),
            clock: WireClock::new(),
            metrics: Mutex::new(TransportMetrics::default()),
            drain: AtomicBool::new(false),
            config,
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || {
            let mut conns: Vec<JoinHandle<()>> = Vec::new();
            loop {
                if accept_shared.drain.load(Ordering::SeqCst) {
                    listener.close();
                    break;
                }
                if let Some(transport) = listener.poll_accept() {
                    let conn_shared = Arc::clone(&accept_shared);
                    conns.push(std::thread::spawn(move || {
                        conn_main(conn_shared, transport);
                    }));
                }
            }
            conns
        });
        Ok(RemoteServer {
            shared,
            accept: Some(accept),
        })
    }

    /// Graceful drain: stop accepting, finish every accepted request,
    /// flush responses, FIN all connections, then return the merged
    /// books. Half-open connections are aborted after their grace and
    /// counted in [`TransportMetrics::conn_aborted`].
    pub fn shutdown(mut self) -> Result<RemoteMetrics, ServiceError> {
        self.shared.drain.store(true, Ordering::SeqCst);
        let conns = self
            .accept
            .take()
            .expect("shutdown runs once")
            .join()
            .expect("accept loop never panics");
        // Drain the service *while* connection writers are still
        // running: its shutdown resolves every accepted request, which
        // is exactly what the writers are waiting to flush.
        let service = self
            .shared
            .service
            .lock()
            .take()
            .expect("service present until shutdown");
        let snapshot = service.shutdown()?;
        for conn in conns {
            conn.join().expect("connection threads never panic");
        }
        let transport = *self.shared.metrics.lock();
        Ok(RemoteMetrics {
            service: snapshot,
            transport,
        })
    }
}

/// One connection, reader side. Spawns and joins its writer.
fn conn_main(shared: Arc<ServerShared>, transport: Box<dyn Transport>) {
    let cfg = &shared.config;
    let mut local = TransportMetrics::default();
    let write_half = transport.try_clone();
    let mut rio = FrameIo::new(
        transport,
        0,
        WireDir::ServerToClient,
        WireFaultPlan::none(),
        Arc::clone(&shared.clock),
    )
    .with_max_payload(cfg.max_payload);

    // Handshake: first frame must be a Hello within the grace window.
    let started = Instant::now();
    let hello = loop {
        match rio.recv_frame() {
            Ok(RecvFrame::Frame(f)) if f.kind == FrameKind::Hello => match decode_hello(&f) {
                Ok(h) => break Some((f.id, h)),
                Err(e) => {
                    local.count_error(&e.into());
                    break None;
                }
            },
            Ok(RecvFrame::Frame(_)) => {
                local.handshake_mismatch += 1;
                break None;
            }
            Ok(RecvFrame::Eof) => break None,
            Ok(RecvFrame::Idle) => {
                if started.elapsed() > cfg.drain_grace.max(Duration::from_millis(250))
                    || shared.drain.load(Ordering::SeqCst)
                {
                    break None;
                }
            }
            Err(e) => {
                local.count_error(&e);
                break None;
            }
        }
    };
    let Some((client, hello)) = hello else {
        rio.abort();
        merge_stats(&shared, local, &rio, None);
        return;
    };

    let protocol_ok = hello.protocol == PROTOCOL_VERSION as u32;
    if !protocol_ok {
        local.handshake_mismatch += 1;
    } else {
        local.conns_accepted += 1;
    }
    rio.set_conn(client);

    // Both sides settle on min(client, server) for the payload window,
    // so neither peer can push a frame the other must reject. The ack
    // still announces our raw config — the client runs the same
    // negotiation over the two announced values.
    let eff_payload = negotiate_payload(cfg.max_payload, hello.max_payload);
    rio.set_max_payload(eff_payload);

    // Writer thread: FIFO over the queue, owns the send half.
    let Some(write_io) = write_half else {
        rio.abort();
        merge_stats(&shared, local, &rio, None);
        return;
    };
    let wio = FrameIo::new(
        write_io,
        client,
        WireDir::ServerToClient,
        cfg.wire_faults.clone(),
        Arc::clone(&shared.clock),
    )
    .with_max_payload(eff_payload);
    let window = Window::new(cfg.window.min(hello.window.max(1)));
    let dead = Arc::new(AtomicBool::new(false));
    let cancels: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));
    let (tx, rx) = mpsc::channel::<WriteItem>();
    let writer = {
        let shared = Arc::clone(&shared);
        let window = Arc::clone(&window);
        let dead = Arc::clone(&dead);
        let cancels = Arc::clone(&cancels);
        std::thread::spawn(move || writer_main(shared, client, wio, rx, window, dead, cancels))
    };
    tx.send(WriteItem::Ack { client })
        .expect("writer just spawned");

    if !protocol_ok {
        // The ack (carrying our protocol) is the client's mismatch
        // evidence; nothing further is served on this connection.
        drop(tx);
        let (wstats, _) = writer.join().expect("writer never panics");
        merge_stats(&shared, local, &rio, Some(wstats));
        return;
    }

    // Main read loop.
    let mut drain_seen: Option<Instant> = None;
    let mut abort = false;
    let mut bye = false;
    loop {
        match rio.recv_frame() {
            Ok(RecvFrame::Frame(f)) => match f.kind {
                FrameKind::Request => {
                    if !window.acquire(cfg.tick, &dead) {
                        abort = true;
                        break;
                    }
                    let item = match shared.dedup.claim(client, f.id) {
                        Some(Slot::Done(result)) => {
                            local.dedup_replays += 1;
                            WriteItem::Ready { id: f.id, result }
                        }
                        Some(Slot::InFlight) => {
                            local.dedup_replays += 1;
                            WriteItem::AwaitDedup { id: f.id }
                        }
                        None => {
                            let t0 = Instant::now();
                            let decoded = decode_request(&f);
                            local.ser_s += t0.elapsed().as_secs_f64();
                            match decoded {
                                Err(e) => {
                                    local.count_error(&e.into());
                                    window.release();
                                    abort = true;
                                    break;
                                }
                                Ok(req) => {
                                    let submitted = shared
                                        .service
                                        .lock()
                                        .as_ref()
                                        .map(|svc| svc.submit(req))
                                        .unwrap_or(Err(Rejection::Draining));
                                    match submitted {
                                        Ok(handle) => WriteItem::Resolve { id: f.id, handle },
                                        Err(rej) => {
                                            // Not recorded in the book: a
                                            // rejected request was never
                                            // executed, so a retry may
                                            // re-attempt admission.
                                            forget_claim(&shared.dedup, client, f.id);
                                            WriteItem::Ready {
                                                id: f.id,
                                                result: Err(rej),
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    };
                    if tx.send(item).is_err() {
                        abort = true;
                        break;
                    }
                }
                FrameKind::Cancel => {
                    // Idempotent: unknown, finished, and repeated ids
                    // are all no-ops — the writer simply never (or no
                    // longer) finds more planes to cut.
                    cancels.lock().insert(f.id);
                }
                FrameKind::Bye => {
                    bye = true;
                    break;
                }
                _ => {
                    local.count_error(&TransportError::FrameCorrupt {
                        detail: format!("unexpected {:?} frame mid-stream", f.kind),
                    });
                    abort = true;
                    break;
                }
            },
            Ok(RecvFrame::Eof) => break,
            Ok(RecvFrame::Idle) => {
                if dead.load(Ordering::SeqCst) {
                    abort = true;
                    break;
                }
                if shared.drain.load(Ordering::SeqCst) {
                    let seen = *drain_seen.get_or_insert_with(Instant::now);
                    if !rio.mid_frame() {
                        break;
                    }
                    if seen.elapsed() >= cfg.drain_grace {
                        // Half-open mid-frame past its grace: abort so
                        // drain cannot be held hostage.
                        local.conn_aborted += 1;
                        abort = true;
                        break;
                    }
                }
            }
            Err(e) => {
                local.count_error(&e);
                abort = true;
                break;
            }
        }
    }
    if abort {
        dead.store(true, Ordering::SeqCst);
        rio.abort();
    }
    drop(tx);
    let (wstats, wmetrics) = writer.join().expect("writer never panics");
    if bye {
        // A clean goodbye means the client will never retry: its book
        // goes. After the join, so no late `resolve` can recreate it. A
        // reset or EOF keeps the book for the reconnect's replays.
        shared.dedup.books.lock().remove(&client);
    }
    local.merge(&wmetrics);
    merge_stats(&shared, local, &rio, Some(wstats));
}

/// Remove an `InFlight` claim that was never submitted (rejection path).
fn forget_claim(dedup: &Dedup, client: u64, id: u64) {
    let mut books = dedup.books.lock();
    if let Some(book) = books.get_mut(&client) {
        if matches!(book.entries.get(&id), Some(Slot::InFlight)) {
            book.entries.remove(&id);
        }
    }
}

/// Send one response — progressively when configured and successful,
/// monolithically otherwise. Checks `cancels` between plane frames so
/// an honored Cancel cuts the sequence at the next boundary. A
/// monolithic response over the negotiated payload window degrades to
/// a typed rejection instead of killing the connection.
fn send_response(
    shared: &ServerShared,
    wio: &mut FrameIo,
    cancels: &Mutex<HashSet<u64>>,
    id: u64,
    result: &ServeResult,
    local: &mut TransportMetrics,
) -> Result<(), TransportError> {
    let sent = if let (Some(codec), Ok(resp)) = (shared.config.progressive, result) {
        (|| {
            let (header, planes) = split_response(resp, codec)?;
            wio.send_frame(&encode_progressive_header(id, &header)?)?;
            for (i, plane) in planes.iter().enumerate() {
                if cancels.lock().contains(&id) {
                    local.cancels_honored += 1;
                    return Ok(());
                }
                let more = i + 1 < planes.len();
                wio.send_frame(&encode_progressive_plane(id, plane, more)?)?;
                local.planes_sent += 1;
            }
            Ok(())
        })()
    } else {
        let t0 = Instant::now();
        let frame = encode_response(id, result)?;
        local.ser_s += t0.elapsed().as_secs_f64();
        wio.send_frame(&frame)
    };
    match sent {
        Err(TransportError::FrameTooLarge { len, max }) => {
            local.frame_too_large += 1;
            let fallback = encode_response(
                id,
                &Err(Rejection::Invalid {
                    detail: format!("response payload {len} B exceeds negotiated window {max} B"),
                }),
            )?;
            wio.send_frame(&fallback)
        }
        other => other,
    }
}

/// Writer side of one connection: resolve → record → send, FIFO.
fn writer_main(
    shared: Arc<ServerShared>,
    client: u64,
    mut wio: FrameIo,
    rx: mpsc::Receiver<WriteItem>,
    window: Arc<Window>,
    dead: Arc<AtomicBool>,
    cancels: Arc<Mutex<HashSet<u64>>>,
) -> (crate::transport::WireStats, TransportMetrics) {
    let mut local = TransportMetrics::default();
    let tick = shared.config.tick;
    let mut send_ok = true;
    for item in rx.iter() {
        let (id, result, releases) = match item {
            WriteItem::Ack { client } => {
                let ack = encode_hello(
                    FrameKind::HelloAck,
                    client,
                    &Hello {
                        protocol: PROTOCOL_VERSION as u32,
                        max_payload: shared.config.max_payload,
                        window: shared.config.window,
                    },
                );
                if send_ok {
                    if let Err(e) = wio.send_frame(&ack) {
                        local.count_error(&e);
                        send_ok = false;
                        dead.store(true, Ordering::SeqCst);
                    }
                }
                continue;
            }
            WriteItem::Resolve { id, handle } => {
                let result = handle.wait();
                shared.dedup.resolve(client, id, &result);
                (id, result, true)
            }
            WriteItem::Ready { id, result } => (id, result, true),
            WriteItem::AwaitDedup { id } => {
                match shared.dedup.await_done(client, id, tick, &dead) {
                    Some(result) => (id, result, true),
                    None => {
                        window.release();
                        continue;
                    }
                }
            }
        };
        if send_ok {
            if let Err(e) = send_response(&shared, &mut wio, &cancels, id, &result, &mut local) {
                local.count_error(&e);
                send_ok = false;
                // The reader must stop pulling new work; resolutions
                // already recorded stay replayable from the book.
                dead.store(true, Ordering::SeqCst);
            }
        }
        if releases {
            window.release();
        }
    }
    if send_ok {
        wio.shutdown_write();
    }
    (wio.stats, local)
}

fn merge_stats(
    shared: &Arc<ServerShared>,
    mut local: TransportMetrics,
    rio: &FrameIo,
    wstats: Option<crate::transport::WireStats>,
) {
    local.absorb_wire(&rio.stats);
    if let Some(w) = wstats {
        local.absorb_wire(&w);
    }
    shared.metrics.lock().merge(&local);
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// Capped exponential backoff for idempotent resubmits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per request (1 = no retry).
    pub max_attempts: u32,
    /// Backoff before the second attempt, in seconds.
    pub backoff_base_s: f64,
    /// Multiplier applied per further attempt.
    pub backoff_mult: f64,
    /// Ceiling on any single backoff, in seconds.
    pub backoff_cap_s: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            backoff_base_s: 1e-3,
            backoff_mult: 2.0,
            backoff_cap_s: 100e-3,
        }
    }
}

impl RetryPolicy {
    /// Backoff slept after failed attempt `attempt` (1-based: the
    /// first failure is attempt 1 and sleeps `backoff_base_s`).
    ///
    /// `attempt = 0` is not a valid failed attempt; it is clamped to 1
    /// rather than panicking, so the schedule stays total. Callers
    /// should never reach it: [`RetryPolicy::validate`] rejects
    /// `max_attempts == 0` and [`RemoteClient::call`] refuses to run
    /// with an invalid policy.
    pub fn backoff_s(&self, attempt: u32) -> f64 {
        let attempt = attempt.max(1);
        (self.backoff_base_s * self.backoff_mult.powi((attempt - 1) as i32)).min(self.backoff_cap_s)
    }

    /// Validate the policy. Returns a human-readable reason on failure.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_attempts == 0 {
            return Err("max_attempts must be >= 1".into());
        }
        for (name, v) in [
            ("backoff_base_s", self.backoff_base_s),
            ("backoff_cap_s", self.backoff_cap_s),
        ] {
            if !(v >= 0.0 && v.is_finite()) {
                return Err(format!("{name} = {v} must be finite and >= 0"));
            }
        }
        if !(self.backoff_mult >= 1.0 && self.backoff_mult.is_finite()) {
            return Err(format!(
                "backoff_mult = {} must be finite and >= 1",
                self.backoff_mult
            ));
        }
        Ok(())
    }
}

/// Client-side accounting of progressive delivery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgressiveTally {
    /// Progressive header frames received.
    pub headers: u64,
    /// Detail-plane frames applied.
    pub planes: u64,
    /// Cancel frames sent after meeting tolerance or a byte budget.
    pub cancels: u64,
    /// Calls resolved from a partial (cut-short) reassembly.
    pub partial_responses: u64,
    /// Sequences cut short because the byte budget was reached before
    /// completion (a subset of `cancels`).
    pub budget_stops: u64,
}

/// A synchronous closed-loop client: one outstanding request, retried
/// with capped exponential backoff across reconnects. Ids are assigned
/// monotonically, so the server's resolution book preserves
/// exactly-once execution under any schedule of wire faults.
pub struct RemoteClient {
    connector: Box<dyn Connector>,
    client_id: u64,
    protocol: u32,
    next_id: u64,
    io: Option<FrameIo>,
    faults: WireFaultPlan,
    clock: Arc<WireClock>,
    retry: RetryPolicy,
    response_timeout: Duration,
    /// Payload window announced in our Hello.
    max_payload: u32,
    /// `(max_payload, window)` settled by the last handshake.
    negotiated: Option<(u32, u32)>,
    /// Stop reading a progressive sequence (and Cancel it) once the
    /// running error bound reaches this.
    tolerance: Option<f64>,
    /// Stop reading a progressive sequence (and Cancel it) once this
    /// many response bytes have arrived for the call, complete or not.
    byte_budget: Option<usize>,
    /// Client-side transport counters (errors observed, frames/bytes).
    pub transport: TransportMetrics,
    /// Progressive delivery counters.
    pub progressive: ProgressiveTally,
    /// Resubmits performed across all calls.
    pub retries: u64,
}

impl RemoteClient {
    /// A client dialing through `connector` as `client_id`. Connections
    /// are opened lazily on first use and after faults.
    pub fn new(connector: Box<dyn Connector>, client_id: u64) -> RemoteClient {
        RemoteClient {
            connector,
            client_id,
            protocol: PROTOCOL_VERSION as u32,
            next_id: 0,
            io: None,
            faults: WireFaultPlan::none(),
            clock: WireClock::new(),
            retry: RetryPolicy::default(),
            response_timeout: Duration::from_secs(30),
            max_payload: DEFAULT_MAX_PAYLOAD,
            negotiated: None,
            tolerance: None,
            byte_budget: None,
            transport: TransportMetrics::default(),
            progressive: ProgressiveTally::default(),
            retries: 0,
        }
    }

    /// Inject `faults` on this client's send path (request direction).
    pub fn with_faults(mut self, faults: WireFaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Override the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Give up on any single response after `timeout`.
    pub fn with_response_timeout(mut self, timeout: Duration) -> Self {
        self.response_timeout = timeout;
        self
    }

    /// Claim a different protocol version in the handshake (tests use
    /// this to provoke [`TransportError::HandshakeMismatch`]).
    pub fn with_claimed_protocol(mut self, protocol: u32) -> Self {
        self.protocol = protocol;
        self
    }

    /// Announce a different payload window in the handshake; the
    /// connection settles on `min(ours, server's)`.
    pub fn with_max_payload(mut self, max_payload: u32) -> Self {
        self.max_payload = max_payload;
        self
    }

    /// Stop reading progressive sequences — and Cancel the request —
    /// once the running error bound is at most `tolerance`. Without a
    /// tolerance the client always reads sequences to completion.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = Some(tolerance);
        self
    }

    /// Stop reading progressive sequences — and Cancel the request —
    /// once at least `budget` response bytes (on-wire frame bytes for
    /// the call) have arrived, even if the running error bound has not
    /// met any tolerance. The partial response delivered is whatever
    /// refinement the budget paid for; budget-cut calls are surfaced in
    /// [`ProgressiveTally::budget_stops`]. Composes with
    /// [`RemoteClient::with_tolerance`]: whichever predicate fires
    /// first cancels the stream.
    pub fn with_byte_budget(mut self, budget: usize) -> Self {
        self.byte_budget = Some(budget.max(1));
        self
    }

    /// The payload window the last handshake settled on
    /// (`min(client, server)`); `None` before the first connection.
    pub fn negotiated_max_payload(&self) -> Option<u32> {
        self.negotiated.map(|(p, _)| p)
    }

    /// The in-flight window the last handshake settled on; `None`
    /// before the first connection.
    pub fn negotiated_window(&self) -> Option<u32> {
        self.negotiated.map(|(_, w)| w)
    }

    fn ensure_conn(&mut self) -> Result<(), TransportError> {
        if self.io.is_some() {
            return Ok(());
        }
        let transport = self.connector.dial()?;
        let mut io = FrameIo::new(
            transport,
            self.client_id,
            WireDir::ClientToServer,
            self.faults.clone(),
            Arc::clone(&self.clock),
        );
        io.send_frame(&encode_hello(
            FrameKind::Hello,
            self.client_id,
            &Hello {
                protocol: self.protocol,
                max_payload: self.max_payload,
                window: 1,
            },
        ))?;
        let deadline = Instant::now() + self.response_timeout;
        loop {
            match io.recv_frame()? {
                RecvFrame::Frame(f) if f.kind == FrameKind::HelloAck => {
                    let ack = decode_hello(&f)?;
                    if ack.protocol != self.protocol {
                        return Err(TransportError::HandshakeMismatch {
                            detail: format!(
                                "server speaks protocol {}, we speak {}",
                                ack.protocol, self.protocol
                            ),
                        });
                    }
                    // Same negotiation the server runs over the two
                    // announced values, so both ends enforce the same
                    // window in both directions.
                    let eff = negotiate_payload(self.max_payload, ack.max_payload);
                    io.set_max_payload(eff);
                    // This client is synchronous (announces window 1)
                    // and validate() forbids a zero server window, so
                    // min(ours, theirs) is always 1.
                    self.negotiated = Some((eff, 1));
                    break;
                }
                RecvFrame::Frame(f) => {
                    return Err(TransportError::HandshakeMismatch {
                        detail: format!("expected HelloAck, got {:?}", f.kind),
                    });
                }
                RecvFrame::Eof => return Err(TransportError::ConnReset),
                RecvFrame::Idle => {
                    if Instant::now() >= deadline {
                        return Err(TransportError::ConnTimeout {
                            waited_ms: self.response_timeout.as_millis() as u64,
                        });
                    }
                }
            }
        }
        self.io = Some(io);
        Ok(())
    }

    /// One request/response exchange. The error carries whether it is
    /// *terminal*: a protocol disagreement, or a request the negotiated
    /// payload window deterministically refuses at send time (a
    /// FrameTooLarge seen on the *receive* path is corruption of the
    /// length field and stays retryable).
    fn attempt(
        &mut self,
        id: u64,
        req: &DecomposeRequest,
    ) -> Result<ServeResult, (TransportError, bool)> {
        self.ensure_conn().map_err(|e| {
            let terminal = matches!(e, TransportError::HandshakeMismatch { .. });
            (e, terminal)
        })?;
        let io = self.io.as_mut().expect("ensure_conn succeeded");
        let frame = encode_request(id, req).map_err(|e| (TransportError::from(e), true))?;
        io.send_frame(&frame).map_err(|e| {
            let terminal = matches!(e, TransportError::FrameTooLarge { .. });
            (e, terminal)
        })?;
        let (result, drop_conn) = recv_response(
            io,
            id,
            self.response_timeout,
            self.tolerance,
            self.byte_budget,
            &mut self.progressive,
        )
        .map_err(|e| (e, false))?;
        if drop_conn {
            // The Cancel could not be sent; redial lazily rather than
            // read a sequence the server will keep streaming.
            if let Some(io) = self.io.take() {
                self.transport.absorb_wire(&io.stats);
            }
        }
        Ok(result)
    }

    /// Submit one request and wait for its outcome, retrying
    /// idempotently (same request id) across transport faults.
    /// Handshake mismatches and send-side oversized requests are
    /// terminal — retrying cannot fix a protocol disagreement or
    /// shrink a payload the negotiated window refuses. An invalid
    /// [`RetryPolicy`] fails typed before anything is sent.
    pub fn call(&mut self, req: &DecomposeRequest) -> Result<ServeResult, TransportError> {
        if let Err(detail) = self.retry.validate() {
            return Err(TransportError::InvalidConfig { detail });
        }
        let id = self.next_id;
        self.next_id += 1;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.attempt(id, req) {
                Ok(result) => return Ok(result),
                Err((e, true)) => {
                    self.io = None;
                    self.transport.count_error(&e);
                    return Err(e);
                }
                Err((e, false)) => {
                    self.transport.count_error(&e);
                    if let Some(io) = self.io.take() {
                        self.transport.absorb_wire(&io.stats);
                    }
                    if attempt >= self.retry.max_attempts {
                        return Err(e);
                    }
                    self.retries += 1;
                    std::thread::sleep(Duration::from_secs_f64(self.retry.backoff_s(attempt)));
                }
            }
        }
    }

    /// Clean goodbye: Bye frame, FIN, fold the connection's counters.
    pub fn goodbye(&mut self) {
        if let Some(mut io) = self.io.take() {
            let _ = io.send_frame(&Frame::new(FrameKind::Bye, self.client_id, Vec::new()));
            io.shutdown_write();
            self.transport.absorb_wire(&io.stats);
        }
    }
}

/// Cancel the in-flight sequence and resolve the call from the partial
/// reassembly. The second return says whether the connection must be
/// dropped (the Cancel itself could not be sent).
fn cancel_and_finish(
    io: &mut FrameIo,
    id: u64,
    assembly: Reassembler,
    tally: &mut ProgressiveTally,
) -> Result<(ServeResult, bool), TransportError> {
    let cancel_sent = io
        .send_frame(&Frame::new(FrameKind::Cancel, id, Vec::new()))
        .is_ok();
    tally.cancels += 1;
    tally.partial_responses += 1;
    Ok((Ok(assembly.into_response()), !cancel_sent))
}

/// Wait for the response to `id` — a terminal outcome, or a progressive
/// sequence reassembled incrementally (cut short by Cancel once
/// `tolerance` is met or `byte_budget` response bytes have landed).
/// Returns `(result, drop_connection)`.
fn recv_response(
    io: &mut FrameIo,
    id: u64,
    timeout: Duration,
    tolerance: Option<f64>,
    byte_budget: Option<usize>,
    tally: &mut ProgressiveTally,
) -> Result<(ServeResult, bool), TransportError> {
    let deadline = Instant::now() + timeout;
    let mut assembly: Option<Reassembler> = None;
    // On-wire bytes received for this call's Response frames; the
    // byte-budget predicate is over delivered wire bytes, not decoded
    // coefficient counts, so it bounds what the link actually carried.
    let mut got_bytes = 0usize;
    let over_budget = |got: usize| byte_budget.is_some_and(|b| got >= b);
    loop {
        match io.recv_frame()? {
            RecvFrame::Frame(f) if f.kind == FrameKind::Response && f.id == id => {
                got_bytes += HEADER_LEN + f.payload.len() + TRAILER_LEN;
                match decode_response_body(&f)? {
                    ResponseBody::Outcome(result) => return Ok((result, false)),
                    ResponseBody::Header(h) => {
                        let more = f.more_follows();
                        let r = Reassembler::new(h)?;
                        tally.headers += 1;
                        if !more {
                            // Zero-plane sequence: complete by itself.
                            return Ok((Ok(r.into_response()), false));
                        }
                        if tolerance.is_some_and(|tol| r.bound() <= tol) {
                            return cancel_and_finish(io, id, r, tally);
                        }
                        if over_budget(got_bytes) {
                            tally.budget_stops += 1;
                            return cancel_and_finish(io, id, r, tally);
                        }
                        assembly = Some(r);
                    }
                    ResponseBody::Plane(p) => {
                        let Some(r) = assembly.as_mut() else {
                            return Err(TransportError::FrameCorrupt {
                                detail: "detail plane before progressive header".into(),
                            });
                        };
                        r.apply(&p)?;
                        tally.planes += 1;
                        if r.complete() || !f.more_follows() {
                            let r = assembly.take().expect("assembly just applied");
                            if !r.complete() {
                                // The server cut the sequence (e.g. a
                                // Cancel from a prior attempt landed
                                // late); the partial result is still
                                // within its reported bound.
                                tally.partial_responses += 1;
                            }
                            return Ok((Ok(r.into_response()), false));
                        }
                        if tolerance.is_some_and(|tol| r.bound() <= tol) {
                            let r = assembly.take().expect("assembly just applied");
                            return cancel_and_finish(io, id, r, tally);
                        }
                        if over_budget(got_bytes) {
                            tally.budget_stops += 1;
                            let r = assembly.take().expect("assembly just applied");
                            return cancel_and_finish(io, id, r, tally);
                        }
                    }
                }
            }
            RecvFrame::Frame(f) if f.kind == FrameKind::Response => {
                // A stale response frame from an earlier id — a prior
                // attempt's monolithic reply or the tail of a cancelled
                // sequence; harmless, keep waiting for ours.
                debug_assert!(f.id < id, "responses never outrun requests");
            }
            RecvFrame::Frame(f) => {
                return Err(TransportError::FrameCorrupt {
                    detail: format!("unexpected {:?} frame mid-stream", f.kind),
                });
            }
            RecvFrame::Eof => return Err(TransportError::ConnReset),
            RecvFrame::Idle => {
                if Instant::now() >= deadline {
                    return Err(TransportError::ConnTimeout {
                        waited_ms: timeout.as_millis() as u64,
                    });
                }
            }
        }
    }
}

impl Drop for RemoteClient {
    fn drop(&mut self) {
        self.goodbye();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::MemListener;
    use dwt::{FilterBank, Matrix};

    /// A client that says goodbye leaves no resolution book behind:
    /// after ten sequential clients call once and part cleanly, the
    /// dedup registry holds nothing.
    #[test]
    fn a_clean_goodbye_drops_the_client_book() {
        let tick = Duration::from_millis(1);
        let listener = MemListener::new(1 << 16, tick);
        let server = RemoteServer::start(
            ServiceConfig::default().with_shards(2),
            RemoteConfig::default(),
            Box::new(listener.clone()),
        )
        .expect("config is valid");
        let shared = Arc::clone(&server.shared);
        for c in 0..10u64 {
            let req = DecomposeRequest::new(
                Matrix::from_fn(16, 16, |r, k| (r * 16 + k + c as usize) as f64),
                FilterBank::haar(),
                2,
            );
            let mut client = RemoteClient::new(Box::new(listener.clone()), c);
            assert!(client.call(&req).expect("clean wire").is_ok());
            client.goodbye();
        }
        // Shutdown joins every connection thread, so each one has seen
        // its Bye and finished with the registry.
        let metrics = server.shutdown().expect("clean drain");
        assert_eq!(metrics.service.completed(), 10);
        assert!(shared.dedup.books.lock().is_empty());
    }
}
