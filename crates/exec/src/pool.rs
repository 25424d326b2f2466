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
//!
//! Like an OpenMP runtime, the pool owns its one region: callers on any
//! thread queue for it, a region opened on one of its own workers runs
//! inline there (nesting off: a team of one), and workers record a
//! region's spans under its caller's request id.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
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
    /// The region caller's request id, for its spans on the workers.
    req: u64,
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

thread_local! {
    /// The pool this thread works for (its `Shared`'s address; 0 = none).
    static WORKER_OF: Cell<usize> = const { Cell::new(0) };
}

/// A fixed-size pool of worker threads executing one parallel region at a
/// time (like an OpenMP team).
pub struct ThreadPool {
    shared: Arc<Shared>,
    /// Held from publishing a region's job to its barrier.
    region: Mutex<()>,
    workers: Vec<JoinHandle<()>>,
    /// Each worker's busy time in the current region (recording only);
    /// allocated once, reused by every region.
    busy: Box<[AtomicU64]>,
}

impl ThreadPool {
    /// Create a pool with exactly `threads` workers (minimum 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            lock: Mutex::new(State {
                job: None,
                req: 0,
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
        let busy = (0..threads).map(|_| AtomicU64::new(0)).collect();
        ThreadPool {
            shared,
            region: Mutex::new(()),
            workers,
            busy,
        }
    }

    /// Number of workers.
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// Run `f(worker_id)` on every worker; blocks until all return.
    ///
    /// A region waits for the one before it, whoever called that. On one
    /// of this pool's own workers, `run` calls `f(0)`, …, `f(size − 1)`.
    ///
    /// With tracing enabled ([`perforad_obs::enabled`]) each region also
    /// records, per worker, one `exec.worker` span (arg `worker`) over its
    /// busy interval and one `exec.barrier_wait_ns` histogram sample — the
    /// gap between that worker finishing its share and the whole team
    /// crossing the barrier. Telemetry stops at this grain (OpDiLib's:
    /// per parallel region and per thread); the tiles inside a worker's
    /// share are counted, not timed.
    pub fn run(&self, f: &(dyn Fn(usize) + Sync)) {
        if self.on_own_worker() {
            return (0..self.size()).for_each(f);
        }
        // A region that panicked poisons the lock; the pool is still whole.
        let _region = self.region.lock().unwrap_or_else(PoisonError::into_inner);
        if !perforad_obs::enabled() {
            return self.run_inner(f);
        }
        let t0 = perforad_obs::now_ns();
        self.run_inner(&|tid| {
            let _span = perforad_obs::span!("exec.worker", "exec", "worker" => tid);
            let s = perforad_obs::now_ns();
            f(tid);
            let busy = perforad_obs::now_ns().saturating_sub(s);
            self.busy[tid].store(busy, Ordering::Relaxed);
        });
        let region_ns = perforad_obs::now_ns().saturating_sub(t0);
        let wait = barrier_wait_hist();
        for b in self.busy.iter() {
            wait.record(region_ns.saturating_sub(b.load(Ordering::Relaxed)));
        }
        regions_counter().inc();
    }

    /// Whether the calling thread is one of this pool's workers.
    fn on_own_worker(&self) -> bool {
        WORKER_OF.with(Cell::get) == Arc::as_ptr(&self.shared) as usize
    }

    fn run_inner(&self, f: &(dyn Fn(usize) + Sync)) {
        // SAFETY: the job pointer outlives its use: under the caller's
        // region lock, this function blocks until every worker has
        // finished the epoch (active == 0) and clears the job slot below.
        let job: Job = unsafe { std::mem::transmute(f) };
        let mut st = self.shared.lock.lock().unwrap();
        st.job = Some(job);
        st.req = perforad_obs::current_request();
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
    /// A 1-worker pool, a single job, or a call on one of this pool's own
    /// workers runs every job inline on the caller, with one state.
    pub fn work_queue<S>(
        &self,
        njobs: usize,
        init: impl Fn(usize) -> S + Sync,
        f: impl Fn(usize, &mut S) + Sync,
    ) {
        if njobs == 0 {
            return;
        }
        if self.size() == 1 || njobs == 1 || self.on_own_worker() {
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
/// isolation construct their own [`ThreadPool`] and hand it to the
/// drivers, which all take one (`ExecMode::parallel`, `BatchPlan::new`).
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
    WORKER_OF.with(|w| w.set(shared as *const Shared as usize));
    let mut last_epoch = 0u64;
    loop {
        let (job, req) = {
            let mut st = shared.lock.lock().unwrap();
            while !st.shutdown && st.epoch == last_epoch {
                st = shared.work_cv.wait(st).unwrap();
            }
            if st.shutdown {
                return;
            }
            last_epoch = st.epoch;
            (st.job.expect("epoch advanced without a job"), st.req)
        };
        // Outside `catch_unwind`, so a panicking job never drops it while
        // unwinding: the region dumps once, from its caller's scope.
        let scope = perforad_obs::RequestScope::enter(req);
        let result = catch_unwind(AssertUnwindSafe(|| job(id)));
        drop(scope);
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

    /// 2 000 regions from each of two threads sharing one 4-worker pool,
    /// each handing `region` 64 tallies to bump once: every job of every
    /// region runs exactly once.
    fn two_callers(region: fn(&ThreadPool, &[AtomicUsize])) {
        let pool = ThreadPool::new(4);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
                    for round in 1..=2000 {
                        region(&pool, &hits);
                        let once = hits.iter().all(|h| h.load(Ordering::Relaxed) == round);
                        assert!(once, "round {round}: a job was lost or ran twice");
                    }
                });
            }
        });
    }

    #[test]
    fn two_callers_share_one_pool_and_each_queued_job_runs_once() {
        two_callers(|pool, hits| {
            pool.work_queue(
                hits.len(),
                |_| (),
                |k, ()| {
                    hits[k].fetch_add(1, Ordering::Relaxed);
                },
            )
        });
    }

    #[test]
    fn two_callers_share_one_pool_and_each_binned_job_runs_once() {
        two_callers(|pool, hits| {
            // Static bins: worker `tid` owns jobs tid, tid + size, …
            pool.run(&|tid| {
                for h in hits.iter().skip(tid).step_by(pool.size()) {
                    h.fetch_add(1, Ordering::Relaxed);
                }
            })
        });
    }

    #[test]
    fn a_region_opened_inside_a_region_of_the_same_pool_runs_inline() {
        let pool = ThreadPool::new(3);
        // Per outer worker: the nested run's 3 shares, then 5 queued jobs.
        let hits: Vec<AtomicUsize> = (0..3 * 8).map(|_| AtomicUsize::new(0)).collect();
        pool.run(&|tid| {
            let me = std::thread::current().id();
            let mine = &hits[8 * tid..8 * tid + 8];
            pool.run(&|t| {
                assert_eq!(std::thread::current().id(), me);
                mine[t].fetch_add(1, Ordering::Relaxed);
            });
            pool.work_queue(
                5,
                |w| assert_eq!(w, 0, "one state, the inline caller's"),
                |k, ()| {
                    assert_eq!(std::thread::current().id(), me);
                    mine[3 + k].fetch_add(1, Ordering::Relaxed);
                },
            );
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn a_panicking_region_leaves_the_pool_to_the_next_caller() {
        let pool = ThreadPool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| pool.run(&|_| panic!("boom"))));
        assert!(caught.is_err());
        assert!(pool.region.is_poisoned());
        let sum = AtomicUsize::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                pool.work_queue(
                    4,
                    |_| (),
                    |k, ()| {
                        sum.fetch_add(k, Ordering::Relaxed);
                    },
                )
            });
        });
        assert_eq!(sum.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn worker_spans_carry_their_callers_request_id() {
        let _lock = crate::obs_lock();
        const CALLERS: [(u64, &str); 2] = [(9001, "pool.caller_a"), (9002, "pool.caller_b")];
        let (pool, rounds) = (ThreadPool::new(3), 50);
        perforad_obs::set_enabled(true);
        std::thread::scope(|s| {
            for (id, name) in CALLERS {
                let pool = &pool;
                s.spawn(move || {
                    let _scope = perforad_obs::RequestScope::enter(id);
                    for _ in 0..rounds {
                        pool.run(&|_| {
                            let _span = perforad_obs::span!(name, "test");
                        });
                    }
                });
            }
        });
        pool.run(&|_| {
            let _span = perforad_obs::span!("pool.unscoped", "test");
        });
        let taken = CALLERS.map(|(id, _)| perforad_obs::take_request_events(id));
        let unscoped: Vec<_> = perforad_obs::collect_events()
            .into_iter()
            .filter(|e| e.name == "pool.unscoped")
            .collect();
        perforad_obs::set_enabled(false);
        for (events, (_, name)) in taken.iter().zip(CALLERS) {
            // Per region and worker: the caller's span and `exec.worker`.
            let named = |n: &str| events.iter().filter(|e| e.name == n).count();
            assert_eq!(named(name), 3 * rounds, "{name}");
            assert_eq!(named("exec.worker"), 3 * rounds, "{name}");
            assert_eq!(events.len(), 6 * rounds, "{name}: another caller's span");
        }
        assert_eq!(unscoped.len(), 3);
        assert!(unscoped.iter().all(|e| e.req == 0), "{unscoped:?}");
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
