//! Serving-layer invariants:
//!
//! 1. responses are bit-identical with the plan cache on or off and
//!    with any batching factor (and match the sequential oracle);
//! 2. graceful drain loses nothing — every accepted request resolves,
//!    and the books balance (accepted = completed + shed + expired);
//! 3. shedding only ever displaces strictly-lower-priority work;
//! 4. the live lane ledger charges each second once: a mostly idle
//!    shard's lanes sum to about its completion time, not twice it;
//! 5. a NaN or infinite pixel anywhere in the image is refused at
//!    admission as `Rejection::Invalid`.

use std::thread;
use std::time::Duration;

use dwt::{dwt2d, Boundary, FilterBank, Matrix};
use proptest::prelude::*;
use wserv::sim::{run_sim, CostModel};
use wserv::{
    AdmissionQueue, Admit, DecomposeRequest, Entry, Priority, Rejection, ServiceConfig,
    WaveletService,
};

fn image(n: usize, salt: u64) -> Matrix {
    Matrix::from_fn(n, n, |r, c| {
        ((r as u64 * 31 + c as u64 * 17 + salt * 7) % 61) as f64 - 30.0
    })
}

/// A deterministic open-loop stream over a small shape pool.
fn stream(n_reqs: usize, seed: u64, rate: f64) -> Vec<(f64, DecomposeRequest)> {
    let sizes = [8usize, 16, 32];
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    let mut t = 0.0;
    let mut out = Vec::with_capacity(n_reqs);
    for _ in 0..n_reqs {
        let u = ((next() >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        t += -u.ln() / rate; // exponential inter-arrival
        let size = sizes[(next() % sizes.len() as u64) as usize];
        let levels = 1 + (next() % 2) as usize;
        let prio = Priority::ALL[(next() % 3) as usize];
        let req = DecomposeRequest::new(image(size, next() % 97), FilterBank::haar(), levels)
            .with_priority(prio);
        out.push((t, req));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Caching and batching are pure execution strategies: the pyramids
    /// the service returns are bit-identical across {cache on, cache
    /// off} x {batch 1, batch 8}, and equal to the sequential oracle.
    #[test]
    fn responses_bit_identical_across_cache_and_batch(seed in 0u64..1_000_000) {
        let arrivals = stream(40, seed, 5_000.0);
        let cost = CostModel::default();
        let base = ServiceConfig::default()
            .with_shards(2)
            .with_queue_capacity(256); // ample: no shedding, pure identity check
        let configs = [
            base.clone().with_cache_capacity(8).with_max_batch(8),
            base.clone().with_cache_capacity(0).with_max_batch(8),
            base.clone().with_cache_capacity(8).with_max_batch(1),
            base.clone().with_cache_capacity(0).with_max_batch(1),
        ];
        let runs: Vec<_> = configs
            .iter()
            .map(|c| run_sim(c, &cost, arrivals.clone()))
            .collect();
        for (i, (_, req)) in arrivals.iter().enumerate() {
            let oracle =
                dwt2d::decompose(&req.image, &req.bank, req.levels, Boundary::Periodic).unwrap();
            for run in &runs {
                let resp = run.outcomes[i].as_ref().expect("uncontended run completes all");
                prop_assert_eq!(&resp.pyramid, &oracle);
            }
        }
        // The batching run really batched and the cache really hit —
        // otherwise the identity above is vacuous.
        prop_assert!(runs[0].metrics.cache_hit_rate() > 0.0);
        prop_assert!(runs[1].metrics.cache_hit_rate() == 0.0);
        prop_assert!(runs[2].metrics.mean_batch_occupancy() == 1.0);
    }

    /// The same stream replayed through the simulator twice produces
    /// identical outcomes and identical latency statistics.
    #[test]
    fn simulation_is_deterministic(seed in 0u64..1_000_000) {
        let cfg = ServiceConfig::default().with_shards(3).with_queue_capacity(4);
        let cost = CostModel::default();
        let a = run_sim(&cfg, &cost, stream(60, seed, 50_000.0));
        let b = run_sim(&cfg, &cost, stream(60, seed, 50_000.0));
        prop_assert_eq!(a.makespan_s, b.makespan_s);
        prop_assert_eq!(a.metrics.completed(), b.metrics.completed());
        prop_assert_eq!(
            a.metrics.latency_quantile(0.95),
            b.metrics.latency_quantile(0.95)
        );
        for (x, y) in a.outcomes.iter().zip(b.outcomes.iter()) {
            match (x, y) {
                (Ok(rx), Ok(ry)) => {
                    prop_assert_eq!(&rx.pyramid, &ry.pyramid);
                    prop_assert_eq!(rx.wait_s, ry.wait_s);
                    prop_assert_eq!(rx.service_s, ry.service_s);
                }
                (Err(ex), Err(ey)) => prop_assert_eq!(ex, ey),
                _ => prop_assert!(false, "outcome kind diverged between replays"),
            }
        }
    }

    /// Accounting closes under overload: every submitted request gets
    /// exactly one outcome, and accepted = completed + shed + expired.
    #[test]
    fn books_balance_under_overload(seed in 0u64..1_000_000) {
        let cfg = ServiceConfig::default().with_shards(2).with_queue_capacity(3);
        // Saturating rate so shedding and queue-full rejections occur.
        let run = run_sim(&cfg, &CostModel::default(), stream(80, seed, 200_000.0));
        prop_assert_eq!(run.outcomes.len(), 80);
        let ok = run.outcomes.iter().filter(|o| o.is_ok()).count() as u64;
        let shed = run
            .outcomes
            .iter()
            .filter(|o| matches!(o, Err(Rejection::Shed { .. })))
            .count() as u64;
        prop_assert_eq!(ok, run.metrics.completed());
        prop_assert_eq!(run.metrics.accepted(), ok + shed);
        prop_assert_eq!(shed, run.metrics.rejected(wserv::RejectKind::Shed));
    }

    /// Pure admission-queue property: a shed victim's class is always
    /// strictly below the displacing arrival's, and `QueueFull` is only
    /// returned when nothing strictly lower is queued.
    #[test]
    fn shedding_only_hits_strictly_lower_priority(
        capacity in 1usize..6,
        arrivals in prop::collection::vec(0usize..3, 1..60),
    ) {
        let mut q: AdmissionQueue<usize> = AdmissionQueue::new(capacity);
        let mut queued: Vec<Priority> = Vec::new(); // mirror of queue contents
        let bank = FilterBank::haar();
        for (i, &p) in arrivals.iter().enumerate() {
            let priority = Priority::ALL[p];
            let entry = Entry {
                id: i as u64,
                arrival: i as f64,
                req: DecomposeRequest::new(Matrix::zeros(8, 8), bank.clone(), 1)
                    .with_priority(priority),
                attempts: 0,
                tag: i,
            };
            match q.admit(i as f64, entry) {
                Admit::Accepted => queued.push(priority),
                Admit::AcceptedShedding(victim) => {
                    prop_assert!(
                        victim.req.priority < priority,
                        "shed victim {:?} not strictly below arrival {:?}",
                        victim.req.priority,
                        priority
                    );
                    let pos = queued
                        .iter()
                        .position(|&x| x == victim.req.priority)
                        .expect("victim must have been queued");
                    queued.remove(pos);
                    queued.push(priority);
                }
                Admit::Rejected(_, Rejection::QueueFull { .. }) => {
                    prop_assert!(
                        queued.iter().all(|&x| x >= priority),
                        "QueueFull returned while strictly lower work was queued"
                    );
                }
                Admit::Rejected(_, other) => {
                    prop_assert!(false, "unexpected rejection {:?}", other)
                }
            }
            prop_assert!(queued.len() <= capacity);
        }
    }
}

/// Live-server drain invariant: submit a burst, shut down, and require
/// that every handle resolves to exactly one outcome with the ledger
/// balanced. (Not a proptest: it exercises real threads and wall time.)
#[test]
fn graceful_drain_resolves_every_accepted_request() {
    let service = WaveletService::start(
        ServiceConfig::default()
            .with_shards(3)
            .with_queue_capacity(16)
            .with_cache_capacity(4)
            .with_max_batch(4),
    );
    let mut handles = Vec::new();
    let mut door_rejects = 0u64;
    for i in 0..120u64 {
        let size = [8usize, 16, 32][(i % 3) as usize];
        let req = DecomposeRequest::new(image(size, i), FilterBank::haar(), 1)
            .with_priority(Priority::ALL[(i % 3) as usize]);
        match service.submit(req) {
            Ok(h) => handles.push((i, size, h)),
            Err(_) => door_rejects += 1,
        }
    }
    let snapshot = service
        .shutdown()
        .expect("no worker died in a fault-free run");
    let mut ok = 0u64;
    let mut shed = 0u64;
    for (i, size, h) in handles {
        match h.wait() {
            Ok(resp) => {
                ok += 1;
                let req_img = image(size, i);
                let oracle =
                    dwt2d::decompose(&req_img, &FilterBank::haar(), 1, Boundary::Periodic).unwrap();
                assert_eq!(resp.pyramid, oracle, "request {i} corrupted in flight");
                assert!(resp.batch_size >= 1);
            }
            Err(Rejection::Shed { by }) => {
                shed += 1;
                assert!(by > Priority::Batch, "only a higher class displaces work");
            }
            Err(other) => panic!("unexpected terminal outcome: {other:?}"),
        }
    }
    assert_eq!(ok, snapshot.completed());
    assert_eq!(snapshot.accepted(), ok + shed);
    assert_eq!(shed, snapshot.rejected(wserv::RejectKind::Shed));
    assert_eq!(
        door_rejects,
        snapshot.rejected(wserv::RejectKind::QueueFull)
            + snapshot.rejected(wserv::RejectKind::Draining)
    );
    // The cache did its job across the drain.
    assert!(snapshot.cache_hit_rate() > 0.0);
    assert!(snapshot.budget_report().is_some());
}

/// A worker blocked on an empty queue is idle, and idle time belongs
/// to the ImbalanceWait lane alone (charged when the books close). At
/// low load, with requests spaced by sleeps so idle time dominates,
/// every shard's lanes must sum to about its completion time; charging
/// the idle wait to the dispatch lane as well roughly doubles the sum.
#[test]
fn live_lanes_charge_idle_time_once() {
    let service = WaveletService::start(ServiceConfig::default().with_shards(2));
    for i in 0..6u64 {
        thread::sleep(Duration::from_millis(15));
        let req = DecomposeRequest::new(image(16, i), FilterBank::haar(), 1);
        service
            .submit(req)
            .expect("an idle service admits")
            .wait()
            .expect("fault-free request completes");
    }
    thread::sleep(Duration::from_millis(15));
    let snapshot = service
        .shutdown()
        .expect("no worker died in a fault-free run");
    for (s, shard) in snapshot.shards.iter().enumerate() {
        let l = &shard.lanes;
        let total = l.useful
            + l.communication
            + l.duplication
            + l.unique_redundancy
            + l.wait
            + l.fault_recovery;
        assert!(
            l.completion > 0.09,
            "shard {s}: completion {}",
            l.completion
        );
        assert!(
            total <= 1.25 * l.completion,
            "shard {s}: lanes sum to {total:.4}s over a {:.4}s completion",
            l.completion
        );
        assert!(
            total >= 0.9 * l.completion,
            "shard {s}: lanes {total:.4}s leave part of the {:.4}s completion uncharged",
            l.completion
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One NaN or ±inf pixel, at any position of any admissible shape,
    /// is refused at the door; the same image made finite again is
    /// served.
    #[test]
    fn non_finite_pixels_are_rejected_at_admission(
        size_tag in 0usize..3,
        pos_seed in 0usize..usize::MAX,
        tag in 0u8..3,
    ) {
        let n = [8usize, 16, 32][size_tag];
        let service = WaveletService::start(ServiceConfig::default().with_shards(2));
        let mut img = image(n, pos_seed as u64 % 1000);
        let pos = pos_seed % (n * n);
        img.data_mut()[pos] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][tag as usize];
        let bad = DecomposeRequest::new(img.clone(), FilterBank::haar(), 2);
        match service.submit(bad) {
            Err(Rejection::Invalid { detail }) => prop_assert!(detail.contains("non-finite")),
            Err(other) => prop_assert!(false, "pixel {} of {}²: rejected as {:?}", pos, n, other),
            Ok(_) => prop_assert!(false, "pixel {} of {}²: admitted", pos, n),
        }
        img.data_mut()[pos] = 0.0;
        let ok = DecomposeRequest::new(img, FilterBank::haar(), 2);
        prop_assert!(service.submit(ok).expect("finite image admits").wait().is_ok());
        let snapshot = service.shutdown().expect("no worker died");
        prop_assert_eq!(snapshot.completed(), 1);
    }
}
