//! The process-wide span recorder — and the flight-recorder ring it
//! doubles as.
//!
//! Each thread that records a span lazily registers one [`ThreadBuf`] in a
//! global registry and from then on pushes events under its own mutex.
//! The mutex is uncontended in steady state — only [`collect_events`] /
//! [`clear_events`] ever touch another thread's buffer — so recording is
//! effectively a `Vec::push` plus one clock read per span boundary.
//!
//! Buffers are bounded: each thread keeps at most [`ring_capacity`] recent
//! spans and overwrites the oldest past that, so a long-lived daemon with
//! tracing enabled holds a sliding window of recent activity instead of
//! growing without bound. [`crate::flight::dump`] snapshots that window on
//! panic, degradation, or deadline breach.
//!
//! Spans are stamped with the recording thread's *request id*
//! ([`RequestScope`]): the serve engine opens a scope per gradient request
//! on the thread that serves it, and the exec thread pool hands the id of
//! each region's caller to its workers for that region. Requests in flight
//! on different threads keep their own ids.

use std::cell::{Cell, OnceCell};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of `(key, value)` argument slots carried by each span.
/// Unused slots hold `("", 0)` and are skipped by the exporters.
pub const SPAN_ARGS: usize = 2;

/// Default per-thread flight-recorder capacity (spans kept per thread
/// before the oldest are overwritten).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// One completed span, as recorded by a [`crate::SpanGuard`] on drop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Static span name, e.g. `"exec.group"`.
    pub name: &'static str,
    /// Coarse pipeline phase the span belongs to, e.g. `"exec"` — the
    /// grouping key for [`crate::TraceReport`] rollups.
    pub phase: &'static str,
    /// Start time in nanoseconds since the trace epoch ([`crate::now_ns`]).
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Recording thread, as a small sequential id (0 = first thread that
    /// ever recorded, usually the main thread).
    pub tid: u64,
    /// Request id the span was recorded under ([`RequestScope`]); 0 when
    /// no request scope was open. Exported as a `request_id` arg by
    /// [`crate::chrome_trace_json`] so per-request spans interleave
    /// legibly across worker threads.
    pub req: u64,
    /// Up to [`SPAN_ARGS`] static-keyed integer arguments.
    pub args: [(&'static str, u64); SPAN_ARGS],
}

impl SpanEvent {
    /// End time in nanoseconds since the trace epoch.
    #[inline]
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

struct Ring {
    events: Vec<SpanEvent>,
    /// Next overwrite position once `events` has reached capacity.
    next: usize,
}

struct ThreadBuf {
    tid: u64,
    ring: Mutex<Ring>,
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

static NEXT_TID: AtomicU64 = AtomicU64::new(0);

/// Per-thread span cap; see [`set_ring_capacity`].
static RING_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);

/// Total spans overwritten (dropped oldest-first) across all threads
/// since process start. Nonzero means [`collect_events`] windows are
/// incomplete; the flight recorder reports it in every dump.
static OVERWRITTEN: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static LOCAL: OnceCell<Arc<ThreadBuf>> = const { OnceCell::new() };
    /// The request id this thread's spans are stamped with (0 = none).
    static REQUEST: Cell<u64> = const { Cell::new(0) };
}

fn local_buf_register() -> Arc<ThreadBuf> {
    let buf = Arc::new(ThreadBuf {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        ring: Mutex::new(Ring {
            events: Vec::new(),
            next: 0,
        }),
    });
    registry()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(Arc::clone(&buf));
    buf
}

/// Per-thread flight-recorder capacity currently in effect.
pub fn ring_capacity() -> usize {
    RING_CAPACITY.load(Ordering::Relaxed)
}

/// Bound each thread's span buffer to `cap` recent spans (minimum 1).
/// Past the cap the oldest span on that thread is overwritten and
/// [`overwritten_total`] increments. Applies to subsequent records;
/// already-buffered spans are kept until collected.
pub fn set_ring_capacity(cap: usize) {
    RING_CAPACITY.store(cap.max(1), Ordering::Relaxed);
}

/// Total spans lost to ring overwrites since process start.
pub fn overwritten_total() -> u64 {
    OVERWRITTEN.load(Ordering::Relaxed)
}

/// The request id the calling thread's spans are stamped with (0 = none).
pub fn current_request() -> u64 {
    REQUEST.with(Cell::get)
}

/// RAII scope stamping every span the calling thread records with a
/// request id, for per-request trace rollups and flight-recorder
/// attribution. Opened by the serve engine around each gradient request;
/// the exec thread pool reads the id and opens a scope of it on each
/// worker for the caller's regions. Scopes on one thread nest.
///
/// If the scope unwinds (the guarded request panicked), the drop handler
/// writes a flight-recorder dump (reason `"panic"`) before the id is
/// cleared, so the post-mortem carries the failing request's id.
pub struct RequestScope {
    prev: u64,
}

impl RequestScope {
    /// Open a scope: spans record with `id` until the scope drops.
    pub fn enter(id: u64) -> Self {
        RequestScope {
            prev: REQUEST.with(|r| r.replace(id)),
        }
    }
}

impl Drop for RequestScope {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = crate::flight::dump("panic", current_request());
        }
        REQUEST.with(|r| r.set(self.prev));
    }
}

/// Record one completed span into the calling thread's ring, stamping it
/// with the thread's recorder id and request id. Called by
/// [`crate::SpanGuard`]; only reached when recording is enabled.
pub(crate) fn record(mut ev: SpanEvent) {
    LOCAL.with(|cell| {
        let buf = cell.get_or_init(local_buf_register);
        ev.tid = buf.tid;
        ev.req = current_request();
        let cap = ring_capacity();
        let mut ring = buf.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.events.len() < cap {
            ring.events.push(ev);
        } else {
            let at = ring.next % ring.events.len();
            ring.events[at] = ev;
            ring.next = at + 1;
            OVERWRITTEN.fetch_add(1, Ordering::Relaxed);
        }
    });
}

fn each_ring<R>(mut f: impl FnMut(&mut Ring) -> R) -> Vec<R> {
    let bufs: Vec<Arc<ThreadBuf>> = registry().lock().unwrap_or_else(|e| e.into_inner()).clone();
    bufs.iter()
        .map(|buf| f(&mut buf.ring.lock().unwrap_or_else(|e| e.into_inner())))
        .collect()
}

fn sort_events(out: &mut [SpanEvent]) {
    out.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.dur_ns)));
}

/// Drain every thread's buffer and return all recorded spans, sorted by
/// start time. Buffers stay registered (threads keep their ids), but are
/// left empty — a subsequent `collect_events` returns only new spans.
pub fn collect_events() -> Vec<SpanEvent> {
    let mut out = Vec::new();
    each_ring(|ring| {
        out.append(&mut ring.events);
        ring.next = 0;
    });
    sort_events(&mut out);
    out
}

/// Copy every buffered span *without* draining, sorted by start time.
/// This is what the flight recorder dumps: a post-mortem snapshot that
/// leaves in-flight request rollups and trace exports undisturbed.
pub fn snapshot_events() -> Vec<SpanEvent> {
    let mut out = Vec::new();
    each_ring(|ring| out.extend_from_slice(&ring.events));
    sort_events(&mut out);
    out
}

/// Drain only the spans recorded under request `id`, leaving everything
/// else buffered — the per-request trace rollup for `Gradient` replies.
/// What stays is kept oldest first, so the ring goes on overwriting its
/// oldest span whether or not it had wrapped.
pub fn take_request_events(id: u64) -> Vec<SpanEvent> {
    let mut out = Vec::new();
    each_ring(|ring| {
        let oldest = ring.next % ring.events.len().max(1);
        ring.events.rotate_left(oldest);
        ring.next = 0;
        ring.events.retain(|ev| {
            let taken = ev.req == id;
            if taken {
                out.push(*ev);
            }
            !taken
        });
    });
    sort_events(&mut out);
    out
}

/// Discard all buffered spans without returning them.
pub fn clear_events() {
    drop(collect_events());
}
