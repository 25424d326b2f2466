//! The process-wide span recorder — and the flight-recorder ring it
//! doubles as.
//!
//! Each thread that records a span lazily registers one ring in the
//! recorder and from then on pushes spans under its own mutex. The mutex
//! is uncontended in steady state — only [`collect_events`] and its
//! siblings ever touch another thread's ring — so recording is
//! effectively a `Vec::push` plus one clock read per span boundary.
//!
//! A ring holds compact records of [`RECORD_BYTES`] (48) bytes: a pointer
//! to the span's call site ([`crate::SpanSite`]: name, phase, argument
//! keys), the start, the duration, the request id and the two argument
//! values. The thread id is kept once per ring. The readers
//! ([`collect_events`], [`snapshot_events`], [`take_request_events`])
//! expand records into [`SpanEvent`]s.
//!
//! Memory is bounded: each thread keeps at most [`ring_capacity`] recent
//! spans and overwrites its oldest past that. When a thread exits, its
//! ring is retired into one process-wide retired ring of the same
//! capacity, which drops its oldest records first; a retired record keeps
//! its thread id and request id. So the recorder holds at most
//! `RECORD_BYTES × capacity × (live recording threads + 1)` bytes of
//! records — 3 MiB per ring at the default capacity — and storage the
//! readers drain is freed. [`crate::flight::dump`] streams that window to
//! a file on panic, degradation, or deadline breach.
//!
//! Spans are stamped with the recording thread's *request id*
//! ([`RequestScope`]): the serve engine opens a scope per gradient request
//! on the thread that serves it, and the exec thread pool hands the id of
//! each region's caller to its workers for that region. Requests in flight
//! on different threads keep their own ids.

use std::cell::{Cell, OnceCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::span::SpanSite;

/// Number of `(key, value)` argument slots carried by each span.
/// Unused slots hold `("", 0)` and are skipped by the exporters.
pub const SPAN_ARGS: usize = 2;

/// Default per-thread flight-recorder capacity (spans kept per thread
/// before the oldest are overwritten).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Bytes one recorded span takes in a ring.
pub const RECORD_BYTES: usize = std::mem::size_of::<Record>();

const _: () = assert!(RECORD_BYTES <= 48);

/// One completed span, as the readers of the recorder return it.
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

/// One span as a ring holds it; its thread id is the ring's.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Record {
    pub(crate) site: &'static SpanSite,
    pub(crate) start_ns: u64,
    pub(crate) dur_ns: u64,
    pub(crate) req: u64,
    pub(crate) args: [u64; SPAN_ARGS],
}

impl Record {
    /// The span this record holds, recorded on thread `tid`.
    pub(crate) fn expand(&self, tid: u64) -> SpanEvent {
        let [k0, k1] = self.site.keys;
        SpanEvent {
            name: self.site.name,
            phase: self.site.phase,
            start_ns: self.start_ns,
            dur_ns: self.dur_ns,
            tid,
            req: self.req,
            args: [(k0, self.args[0]), (k1, self.args[1])],
        }
    }
}

#[derive(Default)]
struct Ring {
    records: Vec<Record>,
    /// Next overwrite position once `records` has reached capacity.
    next: usize,
}

impl Ring {
    /// Push `rec`, overwriting the oldest record once `cap` are held;
    /// returns how many records were dropped. The vector grows to `cap`
    /// and no further.
    fn push(&mut self, rec: Record, cap: usize) -> usize {
        let len = self.records.len();
        if len < cap {
            if len == self.records.capacity() {
                self.records.reserve_exact(len.max(4).min(cap - len));
            }
            self.records.push(rec);
            return 0;
        }
        // A capacity lowered since this ring filled: drop down to it.
        let dropped = self.trim_to(cap);
        let at = self.next % cap;
        self.records[at] = rec;
        self.next = at + 1;
        dropped + 1
    }

    /// Reorder the records oldest first.
    fn oldest_first(&mut self) {
        let oldest = self.next % self.records.len().max(1);
        self.records.rotate_left(oldest);
        self.next = 0;
    }

    /// Drop the oldest records past `keep` and release their storage;
    /// returns how many were dropped.
    fn trim_to(&mut self, keep: usize) -> usize {
        let excess = self.records.len().saturating_sub(keep);
        if excess > 0 {
            self.oldest_first();
            self.records.drain(..excess);
            self.records.shrink_to_fit();
        }
        excess
    }

    /// Every record, leaving the ring empty with no storage.
    fn take(&mut self) -> Vec<Record> {
        self.next = 0;
        std::mem::take(&mut self.records)
    }
}

struct ThreadBuf {
    tid: u64,
    ring: Mutex<Ring>,
}

/// The rings: one per live recording thread, and the retired ring of
/// every thread that exited, as chunks of one thread each, oldest chunk
/// first.
struct Recorder {
    live: Vec<Arc<ThreadBuf>>,
    retired: VecDeque<(u64, Ring)>,
    retired_len: usize,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The recorder. Lock order: this lock, then a ring's.
fn recorder() -> MutexGuard<'static, Recorder> {
    static RECORDER: Mutex<Recorder> = Mutex::new(Recorder {
        live: Vec::new(),
        retired: VecDeque::new(),
        retired_len: 0,
    });
    lock(&RECORDER)
}

impl Recorder {
    /// Append `ring` (oldest first) to the retired ring as thread `tid`'s
    /// chunk, then drop the oldest retired records past `cap`.
    fn retire(&mut self, tid: u64, ring: Ring, cap: usize) {
        if ring.records.is_empty() {
            return;
        }
        self.retired_len += ring.records.len();
        self.retired.push_back((tid, ring));
        while self.retired_len > cap {
            let (_, front) = self.retired.front_mut().expect("records past cap");
            let keep = front.records.len().saturating_sub(self.retired_len - cap);
            let dropped = if keep == 0 {
                let n = front.records.len();
                self.retired.pop_front();
                n
            } else {
                front.trim_to(keep)
            };
            self.retired_len -= dropped;
            OVERWRITTEN.fetch_add(dropped as u64, Ordering::Relaxed);
        }
    }

    /// Visit every live ring, then every retired chunk, with its thread
    /// id. Holding the recorder lock throughout, a thread that exits
    /// meanwhile is seen once: live or retired. Chunks left empty go.
    fn each_ring(&mut self, mut f: impl FnMut(u64, &mut Ring)) {
        for buf in &self.live {
            f(buf.tid, &mut lock(&buf.ring));
        }
        for (tid, ring) in &mut self.retired {
            f(*tid, ring);
        }
        self.retired.retain(|(_, ring)| !ring.records.is_empty());
        self.retired_len = self.retired.iter().map(|(_, r)| r.records.len()).sum();
    }
}

static NEXT_TID: AtomicU64 = AtomicU64::new(0);

/// Per-thread span cap; see [`set_ring_capacity`].
static RING_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);

/// Total spans overwritten (dropped oldest-first) across all rings since
/// process start. Nonzero means [`collect_events`] windows are
/// incomplete; the flight recorder reports it in every dump.
static OVERWRITTEN: AtomicU64 = AtomicU64::new(0);

/// A thread's handle on its ring; retires the ring when the thread exits.
struct Local(Arc<ThreadBuf>);

impl Drop for Local {
    fn drop(&mut self) {
        let mut rec = recorder();
        rec.live.retain(|buf| !Arc::ptr_eq(buf, &self.0));
        let mut ring = std::mem::take(&mut *lock(&self.0.ring));
        ring.oldest_first();
        rec.retire(self.0.tid, ring, ring_capacity());
    }
}

thread_local! {
    static LOCAL: OnceCell<Local> = const { OnceCell::new() };
    /// The request id this thread's spans are stamped with (0 = none).
    static REQUEST: Cell<u64> = const { Cell::new(0) };
}

fn local_register() -> Local {
    let buf = Arc::new(ThreadBuf {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        ring: Mutex::new(Ring::default()),
    });
    recorder().live.push(Arc::clone(&buf));
    Local(buf)
}

/// Per-thread flight-recorder capacity currently in effect.
pub fn ring_capacity() -> usize {
    RING_CAPACITY.load(Ordering::Relaxed)
}

/// Bound each thread's span ring, and the retired ring, to `cap` recent
/// spans (minimum 1). Past the cap the oldest span of a ring is
/// overwritten and [`overwritten_total`] increments. Applies from each
/// ring's next record or retirement on.
pub fn set_ring_capacity(cap: usize) {
    RING_CAPACITY.store(cap.max(1), Ordering::Relaxed);
}

/// Total spans lost to ring overwrites since process start.
pub fn overwritten_total() -> u64 {
    OVERWRITTEN.load(Ordering::Relaxed)
}

/// Spans the recorder holds right now, live and retired rings together:
/// times [`RECORD_BYTES`], the `obs.ring_bytes` gauge.
pub(crate) fn held_records() -> usize {
    let mut n = 0;
    recorder().each_ring(|_, ring| n += ring.records.len());
    n
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
/// with the thread's request id. Called by [`crate::SpanGuard`]; only
/// reached when recording is enabled. A span that ends while its thread
/// is being torn down, after its ring retired, is dropped.
pub(crate) fn record(mut rec: Record) {
    rec.req = current_request();
    let _ = LOCAL.try_with(|cell| {
        let buf = &cell.get_or_init(local_register).0;
        let dropped = lock(&buf.ring).push(rec, ring_capacity());
        if dropped > 0 {
            OVERWRITTEN.fetch_add(dropped as u64, Ordering::Relaxed);
        }
    });
}

/// Start time, longest first, then thread: nested spans open parent
/// first, and the order is total across threads.
fn sort_key(start_ns: u64, dur_ns: u64, tid: u64) -> (u64, std::cmp::Reverse<u64>, u64) {
    (start_ns, std::cmp::Reverse(dur_ns), tid)
}

fn sort_events(out: &mut [SpanEvent]) {
    out.sort_unstable_by_key(|e| sort_key(e.start_ns, e.dur_ns, e.tid));
}

/// Drain every ring and return all recorded spans, sorted by start time.
/// Live threads keep their ids; the drained storage is freed, so a
/// subsequent `collect_events` returns only new spans.
pub fn collect_events() -> Vec<SpanEvent> {
    let mut out = Vec::new();
    recorder().each_ring(|tid, ring| out.extend(ring.take().iter().map(|r| r.expand(tid))));
    sort_events(&mut out);
    out
}

/// Every held record with its thread id, *without* draining, sorted as
/// [`snapshot_events`] sorts: what a flight dump writes, at
/// `RECORD_BYTES + 8` bytes a span.
pub(crate) fn snapshot_records() -> Vec<(u64, Record)> {
    let mut out = Vec::with_capacity(held_records());
    recorder().each_ring(|tid, ring| out.extend(ring.records.iter().map(|r| (tid, *r))));
    out.sort_unstable_by_key(|(tid, r)| sort_key(r.start_ns, r.dur_ns, *tid));
    out
}

/// Copy every buffered span *without* draining, sorted by start time.
/// This is what the flight recorder dumps: a post-mortem snapshot that
/// leaves in-flight request rollups and trace exports undisturbed.
pub fn snapshot_events() -> Vec<SpanEvent> {
    let records = snapshot_records();
    records.iter().map(|(tid, r)| r.expand(*tid)).collect()
}

/// Drain only the spans recorded under request `id`, leaving everything
/// else buffered — the per-request trace rollup for `Gradient` replies.
/// What stays is kept oldest first, so the ring goes on overwriting its
/// oldest span whether or not it had wrapped.
pub fn take_request_events(id: u64) -> Vec<SpanEvent> {
    let mut out = Vec::new();
    recorder().each_ring(|tid, ring| {
        ring.oldest_first();
        ring.records.retain(|r| {
            let taken = r.req == id;
            if taken {
                out.push(r.expand(tid));
            }
            !taken
        });
    });
    sort_events(&mut out);
    out
}

/// Discard all buffered spans without returning them.
pub fn clear_events() {
    recorder().each_ring(|_, ring| drop(ring.take()));
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::tests::with_clean_state;

    /// Put `records` into the retired ring as thread `tid`'s: spans with
    /// chosen times, for tests of what the readers and exporters write.
    pub(crate) fn retire_records(tid: u64, records: Vec<Record>) {
        let ring = Ring { records, next: 0 };
        recorder().retire(tid, ring, ring_capacity());
    }

    /// Records and vector slots of every ring, live and retired.
    fn held() -> (usize, usize) {
        let (mut len, mut slots) = (0, 0);
        recorder().each_ring(|_, ring| {
            len += ring.records.len();
            slots += ring.records.capacity();
        });
        (len, slots)
    }

    #[test]
    fn a_record_is_at_most_48_bytes_and_a_ring_holds_at_most_its_capacity() {
        let size = std::mem::size_of::<Record>();
        assert!(size <= 48, "a record is {size} bytes");
        with_clean_state(|| {
            // Capacities below the first growth step and no power of two:
            // the vector stops at each.
            for cap in [1, 3, 100] {
                set_ring_capacity(cap);
                for i in 0..250u64 {
                    let _s = crate::span!("bound.span", "test", "i" => i);
                }
                let (len, slots) = held();
                assert_eq!(len, cap);
                assert!(
                    slots * size <= cap * size,
                    "{slots} slots at capacity {cap}"
                );
                let kept: Vec<u64> = collect_events().iter().map(|e| e.args[0].1).collect();
                assert_eq!(
                    kept,
                    (250 - cap as u64..250).collect::<Vec<_>>(),
                    "the newest"
                );
                assert_eq!(held(), (0, 0), "collecting frees the ring");
            }
            set_ring_capacity(DEFAULT_RING_CAPACITY);
        });
    }

    #[test]
    fn exited_threads_share_one_retired_ring() {
        const CAP: usize = 8;
        with_clean_state(|| {
            drop(crate::span!("churn.main", "test"));
            let main_tid = collect_events()[0].tid;
            set_ring_capacity(CAP);
            let overwritten = overwritten_total();
            for t in 0..100u64 {
                std::thread::spawn(move || {
                    let _scope = RequestScope::enter(1_000 + t);
                    for i in 0..2 * CAP {
                        let _s = crate::span!("churn", "test", "thread" => t, "i" => i);
                    }
                })
                .join()
                .unwrap();
            }
            let (len, slots) = held();
            let lost = overwritten_total() - overwritten;
            assert!(
                len <= 2 * CAP && slots <= 2 * CAP,
                "{len} records in {slots} slots"
            );
            assert_eq!(
                lost,
                (100 * 2 * CAP - len) as u64,
                "every dropped span counted"
            );
            assert!(
                take_request_events(1_098).is_empty(),
                "older threads' spans went first"
            );
            let events = collect_events();
            set_ring_capacity(DEFAULT_RING_CAPACITY);
            assert_eq!(held(), (0, 0), "collecting frees the retired ring");
            let got: Vec<_> = events.iter().map(|e| (e.args, e.req)).collect();
            let want: Vec<_> = (CAP..2 * CAP)
                .map(|i| ([("thread", 99), ("i", i as u64)], 1_099))
                .collect();
            assert_eq!(got, want, "the newest retired spans, oldest first");
            assert!(events
                .iter()
                .all(|e| e.tid == events[0].tid && e.tid > main_tid));
        });
    }
}
