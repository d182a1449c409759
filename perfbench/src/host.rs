//! Host readings: process CPU, peak RSS, steal share, and the ceilings
//! the engine numbers are read against (copy bandwidth, two-job
//! scaling).

use std::sync::Barrier;
use std::time::Instant;

use dwt::engine::DwtPlan;
use dwt::{Boundary, FilterBank, Matrix};

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn prctl(option: i32, ...) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    fn getppid() -> i32;
}

const RUSAGE_SELF: i32 = 0;
const PR_SET_TIMERSLACK: i32 = 29;
const SCHED_IDLE: i32 = 5;

/// Let this thread's sleeps end within a microsecond of their deadline
/// instead of the default 50 µs timer slack, so an open-loop generator
/// submits on time without spinning.
pub fn tight_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument (the
    // slack in ns) and only changes the calling thread's timer slack.
    let rc = unsafe { prctl(PR_SET_TIMERSLACK, 1000u64) };
    if rc != 0 {
        eprintln!(
            "perfbench: PR_SET_TIMERSLACK failed; generator lateness will include timer slack"
        );
    }
}

/// User + system CPU seconds of the whole process (every thread).
pub fn process_cpu_s() -> f64 {
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `u` is a live, writable value with the layout of the C
    // `struct rusage` on 64-bit Linux, and getrusage writes only that
    // struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    let tv = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    tv(&u.utime) + tv(&u.stime)
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Cumulative `(steal, total)` jiffies of the aggregate `cpu` line of
/// `/proc/stat`.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (
        fields.get(7).copied().unwrap_or(0),
        fields.iter().sum::<u64>(),
    )
}

/// Share of host CPU time stolen by the hypervisor between two
/// [`cpu_jiffies`] readings.
pub fn steal_frac(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// Last-level cache size in bytes as the kernel reports it (the figure
/// `lscpu` prints), or 32 MiB when no level-3 cache is listed.
fn llc_bytes() -> usize {
    let text = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .unwrap_or_default();
    let t = text.trim();
    let (num, mult) = if let Some(k) = t.strip_suffix('K') {
        (k, 1usize << 10)
    } else if let Some(m) = t.strip_suffix('M') {
        (m, 1 << 20)
    } else {
        (t, 1)
    };
    num.parse::<usize>().map_or(32 << 20, |n| n * mult)
}

/// Copy bandwidth in GB/s (bytes read + bytes written per second),
/// best of three, with each array four times the last-level cache so
/// neither fits in it.
pub fn copy_bandwidth_gbs() -> f64 {
    let len = (4 * llc_bytes()).max(64 << 20) / 8;
    let src: Vec<f64> = (0..len).map(|i| i as f64).collect();
    let mut dst = vec![0.0f64; len];
    dst.copy_from_slice(&src); // first touch of every destination page
    let mut best = 0.0f64;
    for _ in 0..3 {
        let t = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        let s = t.elapsed().as_secs_f64();
        best = best.max(2.0 * (len * 8) as f64 / s / 1e9);
    }
    std::hint::black_box(&dst);
    best
}

/// Aggregate warm-kernel throughput of two concurrent jobs over one
/// job, on a 1024² D4 L3 decomposition (2.0 = perfect scaling).
pub fn two_job_scaling() -> f64 {
    const REPS: usize = 8;
    // Each job builds its own plan, image and buffers, waits at the
    // barrier, then times its repetitions.
    let job = |start: &Barrier| {
        let plan = DwtPlan::new(
            1024,
            1024,
            FilterBank::daubechies(4).expect("D4 exists"),
            3,
            Boundary::Periodic,
        )
        .expect("1024² D4 L3 is a valid plan");
        let img = Matrix::from_fn(1024, 1024, |r, c| ((r * 31 + c * 17) % 61) as f64);
        let mut ws = plan.make_workspace();
        let mut out = plan.make_pyramid();
        plan.decompose_into(&img, &mut ws, &mut out)
            .expect("planned geometry");
        start.wait();
        let t = Instant::now();
        for _ in 0..REPS {
            plan.decompose_into(std::hint::black_box(&img), &mut ws, &mut out)
                .expect("planned geometry");
        }
        t.elapsed().as_secs_f64()
    };
    let one = job(&Barrier::new(1));
    let start = Barrier::new(2);
    let two = std::thread::scope(|s| {
        let a = s.spawn(|| job(&start));
        let b = s.spawn(|| job(&start));
        let ta = a.join().expect("scaling job");
        let tb = b.join().expect("scaling job");
        ta.max(tb)
    });
    (2.0 * REPS as f64 / two) / (REPS as f64 / one)
}

/// Child processes that keep every vCPU out of the halt state while the
/// benchmark runs. A halted vCPU of a virtual machine wakes only when
/// the hypervisor schedules it again, which on a busy host adds
/// milliseconds to a thread wake-up; benchmark hosts avoid this by
/// disabling deep idle states, which a guest cannot do. Each spinner
/// runs under `SCHED_IDLE`, so any benchmark or program thread that
/// wakes preempts it at once. They are separate processes, so their
/// CPU time is not in the `getrusage(RUSAGE_SELF)` figures. Dropping
/// the value kills and reaps them.
pub struct IdleSpinners(Vec<std::process::Child>);

/// The flag that turns this executable into one idle spinner.
pub const SPINNER_FLAG: &str = "--idle-spinner";

impl IdleSpinners {
    pub fn start() -> IdleSpinners {
        let n = std::thread::available_parallelism().map_or(1, |n| n.get());
        let spawned = std::env::current_exe().and_then(|exe| {
            (0..n)
                .map(|_| {
                    std::process::Command::new(&exe)
                        .arg(SPINNER_FLAG)
                        .stdin(std::process::Stdio::null())
                        .spawn()
                })
                .collect::<std::io::Result<Vec<_>>>()
        });
        match spawned {
            Ok(children) => IdleSpinners(children),
            Err(e) => {
                eprintln!("perfbench: no idle spinners ({e}); wake-ups include vCPU halt exits");
                IdleSpinners(Vec::new())
            }
        }
    }
}

impl Drop for IdleSpinners {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Body of one spinner: lowest scheduling class, then spin until the
/// parent is gone (reparenting changes `getppid`), so a killed
/// benchmark never leaves a spinner behind.
pub fn run_idle_spinner() {
    let param = 0i32;
    // SAFETY: `param` is a live `struct sched_param` (one int, priority
    // 0 as SCHED_IDLE requires); pid 0 names the calling thread.
    let rc = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) };
    if rc != 0 {
        // Spinning at normal priority would compete with the benchmark.
        return;
    }
    // SAFETY: getppid has no preconditions.
    let parent = unsafe { getppid() };
    loop {
        for _ in 0..(1 << 16) {
            std::hint::spin_loop();
        }
        // SAFETY: as above.
        if unsafe { getppid() } != parent {
            return;
        }
    }
}
