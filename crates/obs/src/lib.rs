//! Observability for the perforad adjoint pipeline.
//!
//! The pipeline spans five stages — schedule → tune → JIT → checkpoint →
//! execute — and end-to-end timings alone cannot say which one a
//! regression lives in. This crate adds the missing layer, in the spirit of
//! OpDiLib's event-based instrumentation of AD runtimes: cheap enough to
//! stay compiled into the hot path, rich enough to show where a gradient's
//! wall time actually goes (fusion-group barriers, tile dispatch, JIT
//! compiles, checkpoint recomputation).
//!
//! Three pieces, all std-only:
//!
//! * **Tracing spans** ([`span!`], [`SpanGuard`]): RAII guards with
//!   `&'static str` names and up to two `u64` args; each call site is one
//!   `static` [`SpanSite`]. Each thread records into its own buffer
//!   (registered once, then touched only by its owner — uncontended), so
//!   parallel adjoint sweeps get per-worker accounting.
//!   When tracing is disabled the guard is a single relaxed atomic load
//!   and a branch: no allocation, no clock read.
//! * **Metrics registry** ([`counter`], [`gauge`], [`histogram`]): typed
//!   handles backed by atomics, with fixed log-bucketed histograms.
//!   [`MetricsSnapshot::collect`] turns the registry into a plain struct
//!   with a [`json::Value`] form.
//! * **Exporters**: [`chrome_trace_json`] writes the recorded spans in
//!   Chrome `chrome://tracing` / Perfetto format ([`write_chrome_trace`]
//!   writes it to a path its caller names), and [`TraceReport`] rolls
//!   them up into per-phase self/total times plus the top-N spans by
//!   self time.
//!
//! The crate also owns the workspace's one JSON codec, [`json`]: every
//! layer builds a [`json::Value`] and one writer prints it.
//!
//! A fourth piece rides along for robustness work: deterministic
//! [`fault`] injection ([`fault::should_fail`], armed via the
//! `PERFORAD_FAULT` spec) that every risky I/O site in the pipeline
//! routes through, with the same disarmed-is-one-atomic-load hot-path
//! discipline as the tracing flag.
//!
//! Two more pieces make the crate a live telemetry plane for the serve
//! daemon:
//!
//! * **Request scoping** ([`RequestScope`], [`take_request_events`]):
//!   the engine opens a scope per gradient request and every span its
//!   thread records while it is open carries the request id — the exec
//!   pool's workers take the id of each region's caller — which the
//!   Chrome exporter emits as a `request_id` arg and the per-request
//!   rollup drains selectively.
//! * **Flight recorder** ([`flight::dump`], [`set_ring_capacity`]): the
//!   per-thread buffers are bounded rings of recent spans, snapshotted
//!   together with the metrics registry and fault tallies to
//!   `PERFORAD_FLIGHT_DIR` on panic, injected-fault degradation, or
//!   deadline breach. Its memory is fixed: a span is a
//!   [`RECORD_BYTES`]-byte (48) record, a thread that exits hands its
//!   ring to one retired ring of the same capacity, so the recorder holds
//!   at most `RECORD_BYTES × capacity × (live recording threads + 1)`
//!   bytes (3 MiB per ring at [`DEFAULT_RING_CAPACITY`]), reported as the
//!   `obs.ring_bytes` gauge. A dump streams its JSON to the file; what it
//!   allocates is the records it writes and a fixed buffer.
//!
//! Tracing is off by default. Enable it with `PERFORAD_TRACE=1` in the
//! environment or programmatically with [`set_enabled`]:
//!
//! ```
//! perforad_obs::set_enabled(true);
//! {
//!     let _sweep = perforad_obs::span!("demo.sweep", "demo", "points" => 1024u64);
//!     perforad_obs::counter("demo.sweeps").inc();
//! }
//! let events = perforad_obs::collect_events();
//! assert_eq!(events.len(), 1);
//! assert_eq!(events[0].name, "demo.sweep");
//! ```

pub mod fault;
pub mod flight;
pub mod json;
mod metrics;
mod recorder;
mod span;
mod trace;

pub use flight::{flight_dir, FLIGHT_DIR_ENV};
pub use metrics::{
    counter, gauge, histogram, histogram_labeled, quantile_upper_bound, reset_metrics, Counter,
    Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, HIST_BUCKETS,
};
pub use recorder::{
    clear_events, collect_events, current_request, overwritten_total, ring_capacity,
    set_ring_capacity, snapshot_events, take_request_events, RequestScope, SpanEvent,
    DEFAULT_RING_CAPACITY, RECORD_BYTES, SPAN_ARGS,
};
pub use span::{SpanGuard, SpanSite};
pub use trace::{
    chrome_trace_json, write_chrome_trace, PhaseStat, SpanStat, TraceReport, TRACE_ENV,
};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Tri-state enabled flag: 0 = not yet initialised from the environment,
/// 1 = disabled, 2 = enabled. Hot paths pay one relaxed load.
static ENABLED: AtomicU8 = AtomicU8::new(0);

const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

/// Is tracing/metrics recording enabled?
///
/// First call initialises the flag from `PERFORAD_TRACE` (`1`/`true`/`on`
/// enable it); after that it is a single relaxed atomic load. Every guard
/// and metric handle checks this, so a disabled process records nothing
/// and allocates nothing.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = std::env::var(TRACE_ENV)
        .map(|v| matches!(v.as_str(), "1" | "true" | "on"))
        .unwrap_or(false);
    ENABLED.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
    on
}

/// Enable or disable recording programmatically, overriding
/// `PERFORAD_TRACE`. Used by examples and tests; safe to call at any time
/// (spans already in flight still complete and are recorded or dropped
/// according to the flag's value when they *started*).
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide trace epoch (the first call).
/// Monotonic; shared by every span so start times are comparable.
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Tests mutate process-global state (the enabled flag, the recorder,
    /// the metrics registry), so they serialise on this lock.
    pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

    pub(crate) fn with_clean_state<R>(f: impl FnOnce() -> R) -> R {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        clear_events();
        reset_metrics();
        let r = f();
        set_enabled(false);
        clear_events();
        reset_metrics();
        r
    }

    #[test]
    fn set_enabled_overrides_env() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        with_clean_state(|| {
            set_enabled(false);
            {
                let _s = span!("off.span", "test");
                counter("off.counter").inc();
            }
            set_enabled(true);
            assert!(collect_events().is_empty());
            assert_eq!(counter("off.counter").get(), 0);
        });
    }

    #[test]
    fn span_args_are_recorded() {
        with_clean_state(|| {
            {
                let _s = span!("argful", "test", "rows" => 7u64, "cols" => 9u64);
            }
            let ev = collect_events();
            assert_eq!(ev.len(), 1);
            assert_eq!(ev[0].args[0], ("rows", 7));
            assert_eq!(ev[0].args[1], ("cols", 9));
        });
    }

    #[test]
    fn nested_spans_nest_in_time() {
        with_clean_state(|| {
            {
                let _outer = span!("outer", "test");
                let _inner = span!("inner", "test");
            }
            let ev = collect_events();
            assert_eq!(ev.len(), 2);
            let outer = ev.iter().find(|e| e.name == "outer").unwrap();
            let inner = ev.iter().find(|e| e.name == "inner").unwrap();
            assert!(inner.start_ns >= outer.start_ns);
            assert!(inner.end_ns() <= outer.end_ns());
        });
    }

    #[test]
    fn a_request_scope_stamps_only_its_own_thread() {
        with_clean_state(|| {
            {
                let _scope = RequestScope::enter(17);
                let _s = span!("scoped.main", "test");
                std::thread::spawn(|| {
                    assert_eq!(current_request(), 0, "a spawned thread has no id");
                    let _w = span!("unscoped.thread", "test");
                })
                .join()
                .unwrap();
            }
            {
                let _s = span!("unscoped.main", "test");
            }
            assert_eq!(current_request(), 0, "scope restored on drop");
            let scoped = take_request_events(17);
            assert_eq!(scoped.len(), 1, "{scoped:?}");
            assert_eq!((scoped[0].name, scoped[0].req), ("scoped.main", 17));
            let mut rest: Vec<_> = collect_events().iter().map(|e| (e.name, e.req)).collect();
            rest.sort_unstable();
            assert_eq!(rest, [("unscoped.main", 0), ("unscoped.thread", 0)]);
        });
    }

    #[test]
    fn request_scopes_nest_and_restore() {
        with_clean_state(|| {
            let outer = RequestScope::enter(1);
            assert_eq!(current_request(), 1);
            {
                let _inner = RequestScope::enter(2);
                assert_eq!(current_request(), 2);
            }
            assert_eq!(current_request(), 1);
            drop(outer);
            assert_eq!(current_request(), 0);
        });
    }

    #[test]
    fn ring_bounds_buffered_spans() {
        with_clean_state(|| {
            let before = overwritten_total();
            set_ring_capacity(4);
            for _ in 0..10 {
                let _s = span!("ring.span", "test");
            }
            let events = collect_events();
            set_ring_capacity(DEFAULT_RING_CAPACITY);
            assert_eq!(events.len(), 4, "ring keeps the newest capacity spans");
            assert_eq!(overwritten_total() - before, 6);
        });
    }

    #[test]
    fn a_wrapped_ring_keeps_overwriting_its_oldest_span_after_a_request_is_taken() {
        static SITES: [SpanSite; 7] = [
            SpanSite::new("a0", "test"),
            SpanSite::new("a1", "test"),
            SpanSite::new("a2", "test"),
            SpanSite::new("a3", "test"),
            SpanSite::new("a4", "test"),
            SpanSite::new("a5", "test"),
            SpanSite::new("a6", "test"),
        ];
        with_clean_state(|| {
            set_ring_capacity(4);
            for site in &SITES[..6] {
                let _s = SpanGuard::enter(site, [0; SPAN_ARGS]);
            }
            assert!(take_request_events(999).is_empty());
            {
                let _s = SpanGuard::enter(&SITES[6], [0; SPAN_ARGS]);
            }
            let kept: Vec<&str> = snapshot_events().iter().map(|e| e.name).collect();
            set_ring_capacity(DEFAULT_RING_CAPACITY);
            assert_eq!(kept, ["a3", "a4", "a5", "a6"]);
        });
    }

    #[test]
    fn ring_bytes_counts_the_records_held() {
        let ring_bytes = || {
            let snap = MetricsSnapshot::collect();
            let gauge = snap
                .gauges
                .iter()
                .find(|(name, _)| name == "obs.ring_bytes");
            gauge.expect("obs.ring_bytes is registered").1
        };
        with_clean_state(|| {
            assert_eq!(ring_bytes(), 0);
            for _ in 0..5 {
                let _s = span!("bytes.span", "test");
            }
            std::thread::spawn(|| drop(span!("bytes.retired", "test")))
                .join()
                .unwrap();
            assert_eq!(ring_bytes(), 6 * RECORD_BYTES as u64);
            assert!(MetricsSnapshot::collect()
                .to_prometheus()
                .contains(&format!("obs_ring_bytes {}", 6 * RECORD_BYTES)));
            collect_events();
            assert_eq!(ring_bytes(), 0);
        });
    }

    #[test]
    fn snapshot_does_not_drain() {
        with_clean_state(|| {
            {
                let _s = span!("snap.span", "test");
            }
            assert_eq!(snapshot_events().len(), 1);
            assert_eq!(snapshot_events().len(), 1, "snapshot repeats");
            assert_eq!(collect_events().len(), 1, "collect still sees the span");
        });
    }

    #[test]
    fn worker_threads_get_distinct_tids() {
        with_clean_state(|| {
            let hs: Vec<_> = (0..3)
                .map(|_| {
                    std::thread::spawn(|| {
                        let _s = span!("worker", "test");
                    })
                })
                .collect();
            for h in hs {
                h.join().unwrap();
            }
            let ev = collect_events();
            assert_eq!(ev.len(), 3);
            let mut tids: Vec<_> = ev.iter().map(|e| e.tid).collect();
            tids.sort_unstable();
            tids.dedup();
            assert_eq!(tids.len(), 3, "each thread records under its own tid");
        });
    }
}
