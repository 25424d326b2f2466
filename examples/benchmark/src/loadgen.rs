//! The open-loop load generator and its accounting.
//!
//! Requests are due on a seeded schedule regardless of how the server is
//! doing. A fixed set of connections takes them in due order; each
//! request is timed from when it was *due*, so a stall is charged to
//! every request that had to wait behind it, not only to the one that
//! hit it. How late the generator itself ran is reported separately.

use crate::stats;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug)]
pub struct Completion {
    /// Position in the schedule.
    pub index: usize,
    pub due_s: f64,
    pub sent_s: f64,
    pub done_s: f64,
    pub ok: bool,
    /// The connection was idle and waiting when the request fell due —
    /// only then is `sent − due` the generator's own lateness.
    pub waited: bool,
}

impl Completion {
    /// Client-observed latency from the due time, ms.
    pub fn latency_ms(&self) -> f64 {
        (self.done_s - self.due_s) * 1e3
    }
}

/// Wait until `deadline`: a coarse sleep to `SPIN` short of it, then a
/// busy wait. A sleeping thread on the calibration host wakes 1–2.5 ms
/// late at the 95th percentile and 5 ms at the 99th, so the sleep stops
/// that far ahead; and the last stretch spins rather than yields, because
/// a yield hands the core to a daemon thread for a whole scheduler slice
/// (3–4 ms). A waiting connection has no request in flight, so the core
/// it holds is one the daemon has no work for.
fn wait_until(deadline: Instant) {
    const SPIN: Duration = Duration::from_micros(4000);
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Run `schedule` (due times in seconds from the start) over `conns`.
/// `send(conn, index)` performs request `index` and says whether it
/// succeeded. Returns one [`Completion`] per request, in due order.
pub fn run_open_loop<C: Send>(
    schedule: &[f64],
    conns: &mut [C],
    send: impl Fn(&mut C, usize) -> bool + Sync,
) -> Vec<Completion> {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(schedule.len()));
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for conn in conns.iter_mut() {
            let (next, done, send) = (&next, &done, &send);
            scope.spawn(move || loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(&due_s) = schedule.get(index) else {
                    return;
                };
                let due = t0 + Duration::from_secs_f64(due_s);
                let waited = Instant::now() < due;
                wait_until(due);
                let sent_s = t0.elapsed().as_secs_f64();
                let ok = send(conn, index);
                let done_s = t0.elapsed().as_secs_f64();
                done.lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .push(Completion {
                        index,
                        due_s,
                        sent_s,
                        done_s,
                        ok,
                        waited,
                    });
            });
        }
    });
    let mut out = done.into_inner().unwrap_or_else(|p| p.into_inner());
    out.sort_by_key(|c| c.index);
    out
}

/// A backlog is growing when requests due in the last quarter of the
/// phase wait markedly longer than those due in the first quarter.
pub fn backlog_grows(latencies_in_due_order: &[f64]) -> bool {
    let n = latencies_in_due_order.len();
    if n < 8 {
        return false;
    }
    let first = stats::median(&latencies_in_due_order[..n / 4]);
    let last = stats::median(&latencies_in_due_order[n - n / 4..]);
    last > 1.5 * first
}

/// One rate's outcome.
#[derive(Clone, Debug)]
pub struct Phase {
    pub rate: f64,
    pub sent: usize,
    /// Requests that succeeded within the latency limit.
    pub within_limit: usize,
    pub latencies_ms: Vec<f64>,
    pub backlog_grows: bool,
    /// The generator's own lateness, ms, for each request whose
    /// connection was idle and waiting when it fell due.
    pub late_ms: Vec<f64>,
    pub duration_s: f64,
}

impl Phase {
    pub fn new(rate: f64, duration_s: f64, limit_ms: f64, done: &[Completion]) -> Phase {
        let latencies_ms: Vec<f64> = done.iter().map(Completion::latency_ms).collect();
        let late: Vec<f64> = done
            .iter()
            .filter(|c| c.waited)
            .map(|c| (c.sent_s - c.due_s) * 1e3)
            .collect();
        Phase {
            rate,
            sent: done.len(),
            within_limit: done
                .iter()
                .filter(|c| c.ok && c.latency_ms() <= limit_ms)
                .count(),
            backlog_grows: backlog_grows(&latencies_ms),
            late_ms: late,
            latencies_ms,
            duration_s,
        }
    }

    /// Meets the limit: at least 99 % of requests *sent* finished within
    /// it (a failed request misses) and no backlog is growing.
    pub fn sustains(&self) -> bool {
        self.sent > 0 && self.within_limit as f64 >= 0.99 * self.sent as f64 && !self.backlog_grows
    }

    /// Requests finished within the limit per second of schedule.
    pub fn goodput(&self) -> f64 {
        self.within_limit as f64 / self.duration_s
    }
}

/// The highest rate that sustains; 0 when none does.
pub fn sustained_rate(phases: &[Phase]) -> f64 {
    phases
        .iter()
        .filter(|p| p.sustains())
        .map(|p| p.rate)
        .fold(0.0, f64::max)
}
