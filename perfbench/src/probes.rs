//! Host and pool probes, and the percentile helper every workload uses.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use vortex_nn::pool::WorkerPool;

/// Restricts the calling thread, and every thread it spawns afterwards,
/// to the last CPU it may run on. Returns that CPU, or `None` when the
/// affinity calls fail (the workload then runs unpinned).
///
/// `serve_calibrated` and `serve_exact` run their load generator and
/// their 1-thread pool on one core: a wake-up then never waits for the host to resume an
/// idle vCPU, and the process competes with the host's other tenants for
/// one core instead of two.
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // A glibc `cpu_set_t`: 1024 bits.
    let mut allowed = [0u64; 16];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let pinned = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } == 0;
    pinned.then_some(cpu)
}

/// Gives the single thread of `pool` the lowest scheduling priority
/// (nice 19), so a load generator sharing its core preempts it as soon as
/// an arrival is due. Returns whether the change took.
pub fn deprioritize_pool_thread(pool: &WorkerPool) -> bool {
    extern "C" {
        fn setpriority(which: i32, who: u32, prio: i32) -> i32;
    }
    const PRIO_PROCESS: i32 = 0;
    let (tx, rx) = mpsc::channel();
    pool.submit(move || {
        // SAFETY: plain integer arguments; on Linux `who = 0` names the
        // calling thread, here the pool's worker.
        let ok = unsafe { setpriority(PRIO_PROCESS, 0, 19) } == 0;
        let _ = tx.send(ok);
    });
    rx.recv().unwrap_or(false)
}

/// Cores the benchmark may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The `q`-quantile of `xs` (linear interpolation; NaN when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    vortex_linalg::stats::quantile(xs, q)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU jiffies from `/proc/stat`: (steal, total), of one CPU or of all.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

impl CpuTimes {
    /// The counters of `cpu`, or of all CPUs for `None`.
    pub fn of(cpu: Option<usize>) -> Self {
        let prefix = cpu.map_or("cpu ".to_string(), |c| format!("cpu{c} "));
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = stat.lines().find(|l| l.starts_with(&prefix)) else {
            return Self::default();
        };
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already counted in user, so sum the first eight.
        Self {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().take(8).sum(),
        }
    }

    /// Share of CPU time the hypervisor stole between `self` and `later`.
    pub fn steal_share_until(&self, later: &Self) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// Length of the windows a [`StealClock`] splits a measurement into, s.
pub const STEAL_WINDOW_S: f64 = 0.1;

/// The steal window `secs` after the start falls in.
pub fn steal_window(secs: f64) -> usize {
    (secs / STEAL_WINDOW_S) as usize
}

/// Host steal of one CPU (or all) over a measurement, sampled at the end
/// of every [`STEAL_WINDOW_S`] window.
#[derive(Debug)]
pub struct StealClock {
    cpu: Option<usize>,
    start: Instant,
    marks: Vec<CpuTimes>,
}

/// What a [`StealClock`] saw.
#[derive(Debug, Clone, Default)]
pub struct StealShares {
    /// Steal share of each window; the last one is partial.
    pub per_window: Vec<f64>,
    /// Steal share of the whole measurement.
    pub overall: f64,
}

impl StealShares {
    /// The calm windows: every full window in which the host stole no
    /// more than in the median full window.
    pub fn calm(&self) -> Vec<bool> {
        let full = &self.per_window[..self.per_window.len().saturating_sub(1)];
        let cut = median(full);
        let mut calm: Vec<bool> = full.iter().map(|&s| s <= cut).collect();
        calm.push(false);
        calm
    }
}

impl StealClock {
    pub fn start(cpu: Option<usize>, start: Instant) -> Self {
        Self {
            cpu,
            start,
            marks: vec![CpuTimes::of(cpu)],
        }
    }

    /// Samples the counters once `now` passes the end of a window.
    pub fn tick(&mut self, now: Instant) {
        let next = self.start + Duration::from_secs_f64(STEAL_WINDOW_S * self.marks.len() as f64);
        if now >= next {
            self.marks.push(CpuTimes::of(self.cpu));
        }
    }

    pub fn finish(mut self) -> StealShares {
        self.marks.push(CpuTimes::of(self.cpu));
        let first = self.marks[0];
        let last = *self.marks.last().expect("two marks");
        StealShares {
            per_window: self
                .marks
                .windows(2)
                .map(|w| w[0].steal_share_until(&w[1]))
                .collect(),
            overall: first.steal_share_until(&last),
        }
    }
}

/// Median time from `WorkerPool::submit` on an idle pool to the job
/// starting, in µs. Each probe waits long enough for the pool thread to
/// park again, so every sample pays a real wake-up.
pub fn pool_wake_us_p50(pool: &WorkerPool, probes: usize) -> f64 {
    let mut wakes = Vec::with_capacity(probes);
    for _ in 0..probes {
        std::thread::sleep(Duration::from_millis(2));
        let (tx, rx) = mpsc::channel();
        let submitted = Instant::now();
        pool.submit(move || {
            let _ = tx.send(Instant::now());
        });
        let started = rx.recv().expect("probe job runs");
        wakes.push((started - submitted).as_secs_f64() * 1e6);
    }
    median(&wakes)
}
