//! A persistent worker thread pool with exact thread-count control.
//!
//! The paper's experiments sweep OpenMP thread counts with pinned workers;
//! Rayon's work-stealing pool does not fix the worker count per region.
//! This pool is the OpenMP stand-in, with two entry points: [`ThreadPool::run`]
//! is the bare parallel region (`f(worker_id)` on every worker — static
//! schedules pre-assign their work by id), and [`ThreadPool::work_queue`]
//! hands out job indices from an atomic counter (`schedule(dynamic,1)`),
//! each worker reusing one lazily built private state across its jobs.
//!
//! Workers are long-lived and parked on a condition variable between
//! parallel regions, so a time-stepping loop pays thread-spawn cost once.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Histogram of per-worker barrier wait (region wall time minus the
/// worker's busy time) — the load-imbalance cost of each parallel region.
fn barrier_wait_hist() -> &'static perforad_obs::Histogram {
    static H: OnceLock<perforad_obs::Histogram> = OnceLock::new();
    H.get_or_init(|| perforad_obs::histogram("exec.barrier_wait_ns"))
}

fn regions_counter() -> &'static perforad_obs::Counter {
    static C: OnceLock<perforad_obs::Counter> = OnceLock::new();
    C.get_or_init(|| perforad_obs::counter("exec.parallel_regions"))
}

type Job = &'static (dyn Fn(usize) + Sync);

struct State {
    job: Option<Job>,
    epoch: u64,
    active: usize,
    panicked: bool,
    shutdown: bool,
}

struct Shared {
    lock: Mutex<State>,
    work_cv: Condvar,
    done_cv: Condvar,
}

/// A fixed-size pool of worker threads executing one parallel region at a
/// time (like an OpenMP team).
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Create a pool with exactly `threads` workers (minimum 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            lock: Mutex::new(State {
                job: None,
                epoch: 0,
                active: 0,
                panicked: false,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("perforad-worker-{id}"))
                    .spawn(move || worker_loop(&shared, id))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool { shared, workers }
    }

    /// Number of workers.
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// Run `f(worker_id)` on every worker; blocks until all return.
    ///
    /// With tracing enabled ([`perforad_obs::enabled`]) each region also
    /// records one `exec.barrier_wait_ns` histogram sample per worker —
    /// the gap between a worker finishing its share and the whole team
    /// crossing the barrier.
    pub fn run(&self, f: &(dyn Fn(usize) + Sync)) {
        if !perforad_obs::enabled() {
            return self.run_inner(f);
        }
        let busy: Vec<AtomicU64> = (0..self.workers.len()).map(|_| AtomicU64::new(0)).collect();
        let t0 = perforad_obs::now_ns();
        self.run_inner(&|tid| {
            let s = perforad_obs::now_ns();
            f(tid);
            busy[tid].store(perforad_obs::now_ns().saturating_sub(s), Ordering::Relaxed);
        });
        let region_ns = perforad_obs::now_ns().saturating_sub(t0);
        let wait = barrier_wait_hist();
        for b in &busy {
            wait.record(region_ns.saturating_sub(b.load(Ordering::Relaxed)));
        }
        regions_counter().inc();
    }

    fn run_inner(&self, f: &(dyn Fn(usize) + Sync)) {
        // SAFETY: the job pointer outlives its use because this function
        // blocks until every worker has finished the epoch (active == 0)
        // before returning, and the job slot is cleared below.
        let job: Job = unsafe { std::mem::transmute(f) };
        let mut st = self.shared.lock.lock().unwrap();
        st.job = Some(job);
        st.epoch += 1;
        st.active = self.workers.len();
        st.panicked = false;
        self.shared.work_cv.notify_all();
        while st.active > 0 {
            st = self.shared.done_cv.wait(st).unwrap();
        }
        st.job = None;
        let panicked = st.panicked;
        drop(st);
        if panicked {
            panic!("a pool worker panicked during a parallel region");
        }
    }

    /// The pool's one dynamic job loop (OpenMP `schedule(dynamic, 1)`),
    /// for *independent* jobs of any grain — tiles of a plan or a fused
    /// group, whole seismic shots, batch requests: workers pull job indices
    /// `0..njobs` from a shared counter, each owning a worker-private state
    /// built lazily by `init(worker_id)` on its first job — so idle workers
    /// never pay for expensive per-worker state (a full adjoint workspace,
    /// a register lane file), and jobs on one worker reuse it.
    ///
    /// Jobs must not re-enter this pool (a parallel region inside a
    /// parallel region would deadlock on the shared job slot); run
    /// per-job work serially, as `TunedStrategy::Serial` does. A 1-worker
    /// pool (or a single job) runs everything inline on the caller.
    pub fn work_queue<S>(
        &self,
        njobs: usize,
        init: impl Fn(usize) -> S + Sync,
        f: impl Fn(usize, &mut S) + Sync,
    ) {
        if njobs == 0 {
            return;
        }
        if self.size() == 1 || njobs == 1 {
            let mut s = init(0);
            for k in 0..njobs {
                f(k, &mut s);
            }
            return;
        }
        let counter = AtomicUsize::new(0);
        self.run(&move |tid| {
            let mut s: Option<S> = None;
            loop {
                let k = counter.fetch_add(1, Ordering::Relaxed);
                if k >= njobs {
                    break;
                }
                f(k, s.get_or_insert_with(|| init(tid)));
            }
        });
    }
}

/// The process-wide shared pool for entry points whose caller did not
/// bring one: sized like the drivers' historical per-call pools
/// (`available_parallelism` capped at 8), spawned once on first use and
/// parked between regions. Callers that care about thread count or
/// isolation should construct their own [`ThreadPool`] and use the
/// `_with_pool` variants of the drivers instead.
pub fn default_pool() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| {
        ThreadPool::new(
            std::thread::available_parallelism()
                .map(|t| t.get().min(8))
                .unwrap_or(2),
        )
    })
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock.lock().unwrap();
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared, id: usize) {
    let mut last_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.lock.lock().unwrap();
            while !st.shutdown && st.epoch == last_epoch {
                st = shared.work_cv.wait(st).unwrap();
            }
            if st.shutdown {
                return;
            }
            last_epoch = st.epoch;
            st.job.expect("epoch advanced without a job")
        };
        let result = catch_unwind(AssertUnwindSafe(|| job(id)));
        let mut st = shared.lock.lock().unwrap();
        if result.is_err() {
            st.panicked = true;
        }
        st.active -= 1;
        if st.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_calls_every_worker_once_per_region_and_is_reusable() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..50 {
            pool.run(&|tid| {
                hits[tid].fetch_add(1, Ordering::Relaxed);
            });
        }
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 50));
    }

    #[test]
    fn work_queue_runs_every_job_once_with_worker_private_state() {
        let pool = ThreadPool::new(3);
        let hits: Vec<AtomicUsize> = (0..23).map(|_| AtomicUsize::new(0)).collect();
        let inits = AtomicUsize::new(0);
        pool.work_queue(
            23,
            |_tid| {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::<usize>::new()
            },
            |k, scratch| {
                scratch.push(k);
                hits[k].fetch_add(1, Ordering::Relaxed);
            },
        );
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        // Lazy init: at most one state per worker, at least one total.
        let n = inits.load(Ordering::Relaxed);
        assert!((1..=3).contains(&n), "{n} states for 3 workers");
    }

    #[test]
    fn work_queue_single_job_and_single_worker_run_inline() {
        let caller = std::thread::current().id();
        let pool = ThreadPool::new(4);
        pool.work_queue(
            1,
            |tid| assert_eq!(tid, 0),
            |_, ()| assert_eq!(std::thread::current().id(), caller),
        );
        let pool1 = ThreadPool::new(1);
        let sum = AtomicUsize::new(0);
        pool1.work_queue(
            5,
            |_| (),
            |k, ()| {
                assert_eq!(std::thread::current().id(), caller);
                sum.fetch_add(k, Ordering::Relaxed);
            },
        );
        assert_eq!(sum.load(Ordering::Relaxed), 10);
        pool.work_queue(0, |_| panic!("no init for zero jobs"), |_, _: &mut ()| {});
    }

    #[test]
    fn default_pool_is_shared_and_reusable() {
        let p1 = default_pool();
        let p2 = default_pool();
        assert!(std::ptr::eq(p1, p2));
        assert!(p1.size() >= 1);
        let sum = AtomicUsize::new(0);
        for _ in 0..2 {
            p1.work_queue(
                8,
                |_| (),
                |k, ()| {
                    sum.fetch_add(k, Ordering::Relaxed);
                },
            );
        }
        assert_eq!(sum.load(Ordering::Relaxed), 56);
    }

    #[test]
    fn worker_panic_propagates() {
        let pool = ThreadPool::new(2);
        let in_region = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|tid| {
                if tid == 0 {
                    panic!("boom");
                }
            });
        }));
        assert!(in_region.is_err());
        let in_job = catch_unwind(AssertUnwindSafe(|| {
            pool.work_queue(
                10,
                |_| (),
                |k, ()| {
                    if k == 3 {
                        panic!("boom");
                    }
                },
            );
        }));
        assert!(in_job.is_err());
        // Pool still usable afterwards.
        let sum = AtomicUsize::new(0);
        pool.work_queue(
            4,
            |_| (),
            |_, ()| {
                sum.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(sum.load(Ordering::Relaxed), 4);
    }
}
