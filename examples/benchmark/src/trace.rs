//! The benchmark's own span recorder. Every span is recorded here, in
//! the benchmark's files, around a call into one of the program's public
//! functions; nothing inside the program is instrumented. Spans stay in
//! memory and are written once, at exit, as Chrome-trace JSON.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    /// The crate the spanned call enters (`bench` for the harness itself).
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u64,
    /// Request or iteration number; 0 when the span belongs to none.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static T0: OnceLock<Instant> = OnceLock::new();
    *T0.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Release);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

/// RAII span; records on drop. Inert when the recorder is off.
pub struct Guard {
    live: Option<(u64, u64, &'static str, &'static str, u64, u64)>,
}

impl Guard {
    /// The span's id, for parenting work that runs on other threads.
    pub fn id(&self) -> u64 {
        self.live.map_or(0, |l| l.0)
    }
}

/// Open a span whose parent is the innermost open span of this thread.
pub fn span(name: &'static str, layer: &'static str) -> Guard {
    open(name, layer, None, 0)
}

/// Open a span under an explicit parent (cross-thread causality) and
/// stamp it with a request number.
pub fn span_under(parent: u64, name: &'static str, layer: &'static str, request: u64) -> Guard {
    open(name, layer, Some(parent), request)
}

fn open(name: &'static str, layer: &'static str, parent: Option<u64>, request: u64) -> Guard {
    if !enabled() {
        return Guard { live: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let p = parent.unwrap_or_else(|| s.last().copied().unwrap_or(0));
        s.push(id);
        p
    });
    Guard {
        live: Some((id, parent, name, layer, now_ns(), request)),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, name, layer, start_ns, request)) = self.live.take() else {
            return;
        };
        let end_ns = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&x| x == id) {
                s.truncate(pos);
            }
        });
        let thread = THREAD.with(|t| *t);
        SPANS.lock().unwrap_or_else(|p| p.into_inner()).push(Span {
            id,
            parent,
            name,
            layer,
            start_ns,
            end_ns,
            thread,
            request,
        });
    }
}

/// Drain everything recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().unwrap_or_else(|p| p.into_inner()))
}

/// Length of the union of `[start, end)` intervals, clipped to `[lo, hi)`.
fn covered(mut iv: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    iv.sort_unstable();
    let (mut total, mut cursor) = (0u64, lo);
    for (s, e) in iv {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time per span id: the span's duration minus the part of that
/// interval its direct children cover (children that overlap each other,
/// as parallel clients do, are counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let cov = children
                .remove(&s.id)
                .map_or(0, |iv| covered(iv, s.start_ns, s.end_ns));
            (s.id, s.duration_ns().saturating_sub(cov))
        })
        .collect()
}

/// `root` and every span it caused, directly or through other spans.
pub fn subtree(spans: &[Span], root: u64) -> Vec<&Span> {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let under_root = |mut id: u64| loop {
        if id == root {
            return true;
        }
        match by_id.get(&id) {
            Some(s) if s.parent != 0 => id = s.parent,
            _ => return false,
        }
    };
    spans.iter().filter(|s| under_root(s.id)).collect()
}

/// Share of the busy time under `root` that each layer's spans hold as
/// self time: the sum of a layer's self times over the sum of all self
/// times in the subtree, so shares add up to one even when spans of
/// several threads overlap. The root's own self time — what no spanned
/// call accounts for — is booked to its layer (`bench`).
pub fn layer_shares(spans: &[Span], root: u64) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut busy: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in subtree(spans, root) {
        *busy.entry(s.layer).or_default() += selfs[&s.id] as f64;
    }
    let total: f64 = busy.values().sum();
    if total > 0.0 {
        for v in busy.values_mut() {
            *v /= total;
        }
    }
    busy
}

/// Chrome-trace ("traceEvents") JSON; open in `chrome://tracing` or
/// Perfetto. `args` carry the causing span and the request number.
pub fn chrome_json(workload: &str, spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
             \"args\":{{\"id\":{},\"parent\":{},\"request\":{},\"workload\":\"{}\"}}}}",
            s.name,
            s.layer,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.thread,
            s.id,
            s.parent,
            s.request,
            workload
        ));
    }
    out.push_str("]}");
    out
}
